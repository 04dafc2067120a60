package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
	"greenhetero/internal/sim"
	"greenhetero/internal/timeseries"
	"greenhetero/internal/wal"
)

// The traced run records a span around every call the benchmark can see
// into a layer: the interfaces the program accepts (policy.Policy, the
// predictor factory, battery.Store, cluster.Allocator, cluster.Disturber,
// cluster.Checkpointer, wal.FS) are wrapped, and direct calls such as
// Session.Step and Daemon.StepEpoch are timed where they are made. No
// span lives inside the program.

// base anchors every timestamp; now is nanoseconds since it.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

type kind uint8

const (
	kStep       kind = iota // sim.Session.Step
	kAllocate               // policy.Policy.Allocate
	kPredict                // timeseries.Predictor Observe / Forecast
	kBattery                // battery.Store, any method
	kSiteEpoch              // one cluster.Run epoch, Disturb to Disturb
	kDisturb                // cluster.Disturber.Disturb (the chaos engine)
	kSplit                  // cluster.Allocator.Weights
	kCommit                 // cluster.Checkpointer.Commit
	kRecover                // cluster.Checkpointer.Recover
	kDaemonStep             // daemon.Daemon.StepEpoch
	kFS                     // wal.FS and wal.File, any method
	kStatus                 // GET /status through daemon.Handler
	kHistory                // GET /history through daemon.Handler
	numKinds
)

var kindNames = [numKinds]string{
	"sim.step", "policy.allocate", "timeseries.predict", "battery.store",
	"cluster.site_epoch", "chaos.disturb", "cluster.split", "wal.commit",
	"wal.recover", "daemon.step_epoch", "wal.fs", "daemon.status", "daemon.history",
}

// span is one timed call. parent indexes the enclosing span of the same
// lane (-1 at top level); epoch ties spans of one epoch across lanes.
type span struct {
	start, end int64
	parent     int32
	epoch      int32
	kind       kind
}

// lane is the span log of one goroutine's calls. Lanes are never shared
// between goroutines, so recording needs no lock and no shared counter.
type lane struct {
	name  string
	epoch int32
	spans []span
	open  []int32
}

func newLane(name string) *lane { return &lane{name: name} }

func (l *lane) begin(k kind) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{start: now(), parent: parent, epoch: l.epoch, kind: k})
	l.open = append(l.open, i)
	return i
}

func (l *lane) end(i int32) {
	l.spans[i].end = now()
	l.open = l.open[:len(l.open)-1]
}

// layerTotals aggregates spans by kind: call count, busy time, and self
// time (busy time minus the time direct children cover).
type layerTotals struct {
	calls [numKinds]int64
	busy  [numKinds]int64
	self  [numKinds]int64
}

func (t *layerTotals) add(l *lane) {
	childNs := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		d := s.end - s.start
		t.calls[s.kind]++
		t.busy[s.kind] += d
		t.self[s.kind] += d - childNs[i]
	}
}

// durations lists the durations of one kind's spans, in microseconds.
func durations(k kind, lanes ...*lane) []float64 {
	var out []float64
	for _, l := range lanes {
		for _, s := range l.spans {
			if s.kind == k {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// spanWriter writes the first spans of each traced workload as CSV as
// soon as they are taken, so no span outlives its repetition.
type spanWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func newSpanWriter(path string) (*spanWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &spanWriter{f: f, bw: bufio.NewWriter(f)}
	fmt.Fprintln(w.bw, "workload,lane,index,name,parent,epoch,start_ns,end_ns")
	return w, nil
}

// keep writes up to limit spans of the lanes. Write errors stick in the
// buffer and come back from close.
func (w *spanWriter) keep(workload string, limit int, lanes ...*lane) {
	kept := 0
	for _, l := range lanes {
		for i, s := range l.spans {
			if kept >= limit {
				return
			}
			kept++
			fmt.Fprintf(w.bw, "%s,%s,%d,%s,%d,%d,%d,%d\n",
				workload, l.name, i, kindNames[s.kind], s.parent, s.epoch, s.start, s.end)
		}
	}
}

func (w *spanWriter) close() error {
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedPolicy times Allocate.
type tracedPolicy struct {
	inner policy.Policy
	l     *lane
}

func (p *tracedPolicy) Name() string    { return p.inner.Name() }
func (p *tracedPolicy) UpdatesDB() bool { return p.inner.UpdatesDB() }
func (p *tracedPolicy) Allocate(ctx policy.Context) ([]float64, error) {
	i := p.l.begin(kAllocate)
	f, err := p.inner.Allocate(ctx)
	p.l.end(i)
	return f, err
}

// tracedPredictor times Observe and Forecast and forwards snapshots, so a
// session with wrapped predictors exports the same state as one without.
type tracedPredictor struct {
	inner timeseries.Predictor
	l     *lane
}

func (p *tracedPredictor) Observe(o float64) {
	i := p.l.begin(kPredict)
	p.inner.Observe(o)
	p.l.end(i)
}

func (p *tracedPredictor) Forecast() (float64, error) {
	i := p.l.begin(kPredict)
	v, err := p.inner.Forecast()
	p.l.end(i)
	return v, err
}

func (p *tracedPredictor) Snapshot() ([]byte, error) {
	s, ok := p.inner.(timeseries.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("predictor %T does not support snapshots", p.inner)
	}
	return s.Snapshot()
}

func (p *tracedPredictor) Restore(data []byte) error {
	s, ok := p.inner.(timeseries.Snapshotter)
	if !ok {
		return fmt.Errorf("predictor %T does not support snapshots", p.inner)
	}
	return s.Restore(data)
}

// holtFactory builds the controller's default predictors (Holt with the
// controller's default smoothing), each wrapped.
func holtFactory(l *lane) func() timeseries.Predictor {
	return func() timeseries.Predictor {
		h, err := timeseries.NewHolt(0.5, 0.3)
		if err != nil {
			panic(err) // constant parameters: only a bug gets here
		}
		return &tracedPredictor{inner: h, l: l}
	}
}

// tracedStore times every battery.Store call.
type tracedStore struct {
	inner battery.Store
	l     *lane
}

func (b *tracedStore) SoC() float64 {
	i := b.l.begin(kBattery)
	v := b.inner.SoC()
	b.l.end(i)
	return v
}

func (b *tracedStore) AtDoD() bool {
	i := b.l.begin(kBattery)
	v := b.inner.AtDoD()
	b.l.end(i)
	return v
}

func (b *tracedStore) AvailableDischargeW(d time.Duration) float64 {
	i := b.l.begin(kBattery)
	v := b.inner.AvailableDischargeW(d)
	b.l.end(i)
	return v
}

func (b *tracedStore) AcceptableChargeW(d time.Duration) float64 {
	i := b.l.begin(kBattery)
	v := b.inner.AcceptableChargeW(d)
	b.l.end(i)
	return v
}

func (b *tracedStore) Discharge(requestW float64, d time.Duration) float64 {
	i := b.l.begin(kBattery)
	v := b.inner.Discharge(requestW, d)
	b.l.end(i)
	return v
}

func (b *tracedStore) Charge(offerW float64, d time.Duration, src battery.Source) float64 {
	i := b.l.begin(kBattery)
	v := b.inner.Charge(offerW, d, src)
	b.l.end(i)
	return v
}

// tracedAllocator times the site split.
type tracedAllocator struct {
	inner cluster.Allocator
	l     *lane
}

func (a *tracedAllocator) Name() string { return a.inner.Name() }
func (a *tracedAllocator) Weights(bids []float64, site cluster.Supply, out []float64) error {
	i := a.l.begin(kSplit)
	err := a.inner.Weights(bids, site, out)
	a.l.end(i)
	return err
}

// tracedCheckpointer times WAL commits and crash recoveries.
type tracedCheckpointer struct {
	inner    cluster.Checkpointer
	l        *lane
	failures int
}

func (c *tracedCheckpointer) Rack() int { return c.inner.Rack() }
func (c *tracedCheckpointer) Commit(epoch int, s *sim.Session) error {
	i := c.l.begin(kCommit)
	err := c.inner.Commit(epoch, s)
	c.l.end(i)
	if err != nil {
		c.failures++
	}
	return err
}

func (c *tracedCheckpointer) Recover(epoch int, s *sim.Session) error {
	i := c.l.begin(kRecover)
	err := c.inner.Recover(epoch, s)
	c.l.end(i)
	return err
}

// tracedFS times every filesystem call of the WAL and counts the bytes
// written and the syncs (file and directory) it asks for.
type tracedFS struct {
	inner wal.FS
	l     *lane
	bytes int64
	syncs int64
}

func (fs *tracedFS) Create(name string) (wal.File, error) {
	i := fs.l.begin(kFS)
	f, err := fs.inner.Create(name)
	fs.l.end(i)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: f, fs: fs}, nil
}

func (fs *tracedFS) ReadFile(name string) ([]byte, error) {
	i := fs.l.begin(kFS)
	b, err := fs.inner.ReadFile(name)
	fs.l.end(i)
	return b, err
}

func (fs *tracedFS) Rename(oldname, newname string) error {
	i := fs.l.begin(kFS)
	err := fs.inner.Rename(oldname, newname)
	fs.l.end(i)
	return err
}

func (fs *tracedFS) Remove(name string) error {
	i := fs.l.begin(kFS)
	err := fs.inner.Remove(name)
	fs.l.end(i)
	return err
}

func (fs *tracedFS) List() ([]string, error) {
	i := fs.l.begin(kFS)
	names, err := fs.inner.List()
	fs.l.end(i)
	return names, err
}

func (fs *tracedFS) SyncDir() error {
	i := fs.l.begin(kFS)
	err := fs.inner.SyncDir()
	fs.l.end(i)
	fs.syncs++
	return err
}

type tracedFile struct {
	inner wal.File
	fs    *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	i := f.fs.l.begin(kFS)
	n, err := f.inner.Write(p)
	f.fs.l.end(i)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *tracedFile) Sync() error {
	i := f.fs.l.begin(kFS)
	err := f.inner.Sync()
	f.fs.l.end(i)
	f.fs.syncs++
	return err
}

func (f *tracedFile) Close() error {
	i := f.fs.l.begin(kFS)
	err := f.inner.Close()
	f.fs.l.end(i)
	return err
}

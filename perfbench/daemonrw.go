package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"greenhetero/internal/daemon"
	"greenhetero/internal/runner"
	"greenhetero/internal/sim"
	"greenhetero/internal/wal"
)

// The read load is set per simulated epoch, so the number of reads, and
// with it the allocations and the lock traffic they bring, does not depend
// on how fast the daemon steps. No measured deployment is behind it; it is
// the benchmark's assumption: a dashboard that refreshes /status once
// every four epochs and pulls /history once per simulated day. While the
// writer steps back to back, the write lock admits a waiting reader once
// per epoch, so one read per epoch would hold the reader at saturation
// and its queue would grow without bound; one in four leaves it room to
// catch up after a slow read.
const (
	// statusEvery is the epochs per /status read, and historyEvery the
	// epochs per /history read (one simulated day). Which epoch of each
	// window a read falls on is seeded.
	statusEvery  = 4
	historyEvery = epochsPerDay
	// decodeOneIn decodes every hundredth /status body in full to check
	// it; the others are checked for a 200 and a JSON object.
	decodeOneIn = 100
	// collectEvery is how often, in epochs, the writer copies the
	// daemon's history out; the daemon keeps the last 1024.
	collectEvery = 512
)

// readStats is the read side of one daemon-rw repetition.
type readStats struct {
	statusUs  []float64 // /status latency from when the read was due
	handlerUs []float64 // /status time inside the handler
	lateUs    []float64 // how late the reader started each /status read
	history   int64
	attempted int64
	failed    int64
}

// daemonLayers is the traced daemon-rw's instrumentation: the writer's
// lane (StepEpoch, policy, predictors, WAL filesystem) and the reader's.
type daemonLayers struct {
	writer, reader *lane
	fs             *tracedFS
	// The WAL's bytes and syncs, and the writer's span count, when the
	// epoch loop ended: the closing checkpoint is not per-epoch work.
	bytes, syncs int64
	spans        int
}

// runDaemonRW runs one daemon over a Comb1 rack with its WAL on an
// in-memory CrashFS (no crashpoint armed). The calling goroutine drives
// StepEpoch back to back and hands each read of the seeded schedule to a
// second goroutine the moment the read's epoch starts: /status once every
// statusEvery epochs and /history once per simulated day, through the
// daemon's handler. The reads are open loop: the writer never waits for
// them, and each is timed from when it was due.
func runDaemonRW(seed int64, heap bool, tl *daemonLayers) (rep, error) {
	t0 := now()
	cfg, err := daemonConfig(seed)
	if err != nil {
		return rep{}, err
	}
	var writer, reader *lane
	if tl != nil {
		writer, reader = tl.writer, tl.reader
		cfg.Policy = &tracedPolicy{inner: cfg.Policy, l: writer}
		cfg.PredictorFactory = holtFactory(writer)
	}
	sess, err := sim.NewSession(cfg)
	if err != nil {
		return rep{}, err
	}
	var fsys wal.FS = wal.NewCrashFS(runner.DeriveSeed(seed, "daemon-rw/walfs"))
	if tl != nil {
		tl.fs = &tracedFS{inner: fsys, l: writer}
		fsys = tl.fs
	}
	d, err := daemon.New(daemon.Config{
		Session: sess,
		Tick:    time.Second, // never started: the benchmark drives StepEpoch
		FS:      fsys,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return rep{}, err
	}
	defer d.Stop()
	h := d.Handler()
	r := rep{epochUs: make([]float64, 0, cfg.Epochs), reads: &readStats{}}
	r.setupS = float64(now()-t0) / 1e9
	if tl != nil {
		// Per-epoch WAL figures cover the epoch loop, not the opening
		// checkpoint.
		writer.spans = writer.spans[:0]
		tl.fs.bytes, tl.fs.syncs = 0, 0
	}

	// A read is due the moment its epoch starts. The channel has room for
	// every read, so the writer never waits on the reader.
	reads := readSchedule(runner.DeriveSeed(seed, "daemon-rw/reads"), cfg.Epochs)
	due := make(chan dueRead, len(reads))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readLoop(h, due, r.reads, reader)
	}()

	m0 := readMem()
	start := now()
	results := make([]sim.EpochResult, 0, cfg.Epochs)
	var stepErr error
	next := 0 // the next read in the schedule
	for e := 0; e < cfg.Epochs; e++ {
		var sp int32
		if writer != nil {
			writer.epoch = int32(e)
			sp = writer.begin(kDaemonStep)
		}
		for ; next < len(reads) && reads[next].epoch == e; next++ {
			due <- dueRead{read: reads[next], at: now()}
		}
		a := now()
		err := d.StepEpoch()
		b := now()
		if writer != nil {
			writer.end(sp)
		}
		r.ops++
		if err != nil {
			r.failed++
			stepErr = err
			break
		}
		r.epochUs = append(r.epochUs, float64(b-a)/1e3)
		if (e+1)%collectEvery == 0 || e == cfg.Epochs-1 {
			results = collect(d.History(), results)
		}
	}
	r.loopS = float64(now()-start) / 1e9
	if tl != nil {
		tl.bytes, tl.syncs, tl.spans = tl.fs.bytes, tl.fs.syncs, len(writer.spans)
	}
	close(due)
	wg.Wait()
	r.mem = m0.to(readMem())
	r.ops += r.reads.attempted
	r.failed += r.reads.failed
	if stepErr != nil {
		return r, stepErr
	}
	if heap {
		r.liveHeap = liveHeap()
	}
	// A session-level epoch failure is recorded by the daemon, not
	// returned: it shows as a gap in the history.
	for i, e := range results {
		if e.Epoch != i {
			r.failed++
			return r, fmt.Errorf("daemon history has epoch %d at position %d", e.Epoch, i)
		}
	}
	if len(results) != cfg.Epochs {
		r.failed++
		return r, fmt.Errorf("daemon committed %d of %d epochs", len(results), cfg.Epochs)
	}
	r.rackEpochs = float64(len(results))
	res := sess.NewResult()
	res.Epochs = results
	r.out = rackOutputs(res)
	return r, nil
}

// collect appends the history entries newer than the ones already held.
func collect(hist, into []sim.EpochResult) []sim.EpochResult {
	for _, e := range hist {
		if e.Epoch >= len(into) {
			into = append(into, e)
		}
	}
	return into
}

// read is one scheduled read: a GET /status, or a GET /history.
type read struct {
	epoch   int
	history bool
}

// dueRead is a read handed to the reader, with when it fell due.
type dueRead struct {
	read
	at int64
}

// readSchedule places one /status read on a seeded epoch of every
// statusEvery and one /history read on a seeded epoch of every
// historyEvery, in epoch order.
func readSchedule(seed int64, epochs int) []read {
	rng := rand.New(rand.NewSource(seed))
	var out []read
	statusAt, historyAt := -1, -1
	for e := 0; e < epochs; e++ {
		if e%statusEvery == 0 {
			statusAt = e + rng.Intn(statusEvery)
		}
		if e%historyEvery == 0 {
			historyAt = e + rng.Intn(historyEvery)
		}
		if e == statusAt {
			out = append(out, read{epoch: e})
		}
		if e == historyAt {
			out = append(out, read{epoch: e, history: true})
		}
	}
	return out
}

// readLoop serves the reads handed to it until due closes. Each /status
// read is timed from its due time, so a read that waits for the epoch's
// lock, or a reader that falls behind, charges the wait to the read.
func readLoop(h http.Handler, due <-chan dueRead, rs *readStats, l *lane) {
	statusReq := httptest.NewRequest(http.MethodGet, "/status", nil)
	historyReq := httptest.NewRequest(http.MethodGet, "/history", nil)
	w := &sink{hdr: http.Header{}}
	lastEpoch := -1
	for d := range due {
		rs.attempted++
		if d.history {
			serve(h, w, historyReq, kHistory, l)
			rs.history++
			if w.code != http.StatusOK || !bytes.HasPrefix(w.body.Bytes(), []byte("[")) {
				rs.failed++
			}
			continue
		}
		a := now()
		serve(h, w, statusReq, kStatus, l)
		b := now()
		rs.statusUs = append(rs.statusUs, float64(b-d.at)/1e3)
		rs.handlerUs = append(rs.handlerUs, float64(b-a)/1e3)
		rs.lateUs = append(rs.lateUs, float64(max(a-d.at, 0))/1e3)
		if !checkStatus(w, rs.attempted%decodeOneIn == 0, &lastEpoch) {
			rs.failed++
		}
	}
}

// serve runs one request through the handler into w, as a span of kind k
// when l is set.
func serve(h http.Handler, w *sink, req *http.Request, k kind, l *lane) {
	w.reset()
	if l == nil {
		h.ServeHTTP(w, req)
		return
	}
	sp := l.begin(k)
	h.ServeHTTP(w, req)
	l.end(sp)
}

// checkStatus reports whether a /status response is a 200 JSON object
// and, when decode is set, whether it reports no error and an epoch no
// earlier than the last decoded one.
func checkStatus(w *sink, decode bool, lastEpoch *int) bool {
	if w.code != http.StatusOK || !bytes.HasPrefix(w.body.Bytes(), []byte("{")) {
		return false
	}
	if !decode {
		return true
	}
	var st struct {
		SessionEpoch int    `json:"sessionEpoch"`
		LastError    string `json:"lastError"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &st); err != nil || st.LastError != "" || st.SessionEpoch < *lastEpoch {
		return false
	}
	*lastEpoch = st.SessionEpoch
	return true
}

// sink is a reusable in-process http.ResponseWriter.
type sink struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header { return s.hdr }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.body.Write(p)
}

func (s *sink) reset() {
	s.code = 0
	s.body.Reset()
	clear(s.hdr)
}

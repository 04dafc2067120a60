package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// layerPass is the traced run. Every workload's layers are measured in
// every traced run, each on the workload the layer matters to, so the
// output carries every per-layer metric. Each workload alternates
// untraced and traced repetitions of the same input: the traced outputs
// must equal the untraced ones bit for bit, and the two sides' epoch
// times give the tracing overhead. The GC figures come from the untraced
// side, since spans allocate; every traced repetition drops its spans
// (after writing the first ones out) before the next untraced one runs,
// so the untraced side's heap is the program's own.
func layerPass(rp *report, seed int64, budget time.Duration) {
	share := budget / time.Duration(len(workloads))
	path := filepath.Join(spanDir, fmt.Sprintf("spans-seed%d.csv", seed))
	sw, err := newSpanWriter(path)
	if err != nil {
		rp.fail("spans: %v", err)
		return
	}
	rackYearLayers(rp, seed, share, sw)
	fleetLayerPass(rp, "fleet-week", seed, share, sw)
	fleetLayerPass(rp, "storm-1000", seed, share, sw)
	daemonLayerPass(rp, seed, share, sw)
	if err := sw.close(); err != nil {
		rp.fail("writing spans: %v", err)
		return
	}
	fmt.Fprintf(rp.w, "spans of the first traced repetitions written to %s\n", path)
}

const (
	// spanDir is where the traced run writes its spans, inside the
	// checkout's build directory.
	spanDir = ".bench_build/spans"
	// spansKept bounds each workload's share of the span file.
	spansKept = 50000
)

// interleave alternates an untraced and a traced repetition of one
// workload for its share of the budget, and after that until enough says
// so. Alternating lets both sides see the same host phases.
func interleave(rp *report, name string, seed int64, share time.Duration,
	traced func() (rep, error), enough func(untraced []rep) bool) (u, t []rep, ok bool) {
	for start := now(); len(t) == 0 || now()-start < int64(share) || !enough(u); {
		ur, err := runOnce(name, seed, false)
		rp.attempted += ur.ops
		rp.failed += ur.failed
		if err != nil {
			rp.fail("%s untraced: %v", name, err)
			return nil, nil, false
		}
		u = append(u, ur)
		tr, err := traced()
		rp.attempted += tr.ops
		rp.failed += tr.failed
		if err != nil {
			rp.fail("%s traced: %v", name, err)
			return nil, nil, false
		}
		if tr.out != ur.out {
			rp.fail("%s: traced outputs %+v differ from the untraced ones %+v", name, tr.out, ur.out)
		}
		t = append(t, tr)
	}
	return u, t, true
}

func always([]rep) bool { return true }

// setCommon reports the untraced side's collector load per epoch of the
// workload (rack epoch or site epoch), and the tracing overhead: each
// pair's epoch-loop time, traced over untraced, and the median over pairs.
func setCommon(rp *report, name string, u, t []rep) {
	var cycles, pauseNs, epochs float64
	for _, r := range u {
		cycles += float64(r.mem.gcCycles)
		pauseNs += float64(r.mem.gcPauseNs)
		epochs += float64(len(r.epochUs))
	}
	rp.set(name+".go.gc_cycles_per_kepoch", 1e3*cycles/epochs, "count", "untraced side")
	rp.set(name+".go.gc_pause_us_per_epoch", pauseNs/1e3/epochs, "us", "untraced side")
	ratios := make([]float64, len(t))
	for i := range t {
		ratios[i] = t[i].loopS / u[i].loopS
	}
	rp.set(name+".trace.time_ratio", median(ratios), "ratio",
		fmt.Sprintf("epoch-loop time, traced over untraced, median of %d interleaved pairs", len(t)))
}

func rackYearLayers(rp *report, seed int64, share time.Duration, sw *spanWriter) {
	const name = "rack-year"
	l := newLane("rack")
	var tot layerTotals
	first := true
	traced := func() (rep, error) {
		r, err := runRackYear(seed, false, &rackLayers{l: l})
		tot.add(l)
		if first {
			sw.keep(name, spansKept, l)
			first = false
		}
		l.spans = nil
		return r, err
	}
	u, t, ok := interleave(rp, name, seed, share, traced, always)
	if !ok {
		return
	}
	epochs := float64(len(t) * len(t[0].epochUs))
	rp.set(name+".policy.allocate_us_per_epoch", float64(tot.busy[kAllocate])/1e3/epochs, "us", "")
	rp.set(name+".policy.allocate_calls_per_epoch", float64(tot.calls[kAllocate])/epochs, "count", "")
	rp.set(name+".timeseries.forecast_ns_per_epoch", float64(tot.busy[kPredict])/epochs, "ns",
		fmt.Sprintf("Observe and Forecast, %.1f calls per epoch", float64(tot.calls[kPredict])/epochs))
	rp.set(name+".battery.busy_ns_per_epoch", float64(tot.busy[kBattery])/epochs, "ns", "")
	rp.set(name+".battery.calls_per_epoch", float64(tot.calls[kBattery])/epochs, "count", "")
	rp.set(name+".sim.step_self_us_per_epoch", float64(tot.self[kStep])/1e3/epochs, "us",
		"Session.Step minus policy, predictor and battery calls")
	setCommon(rp, name, u, t)
}

func fleetLayerPass(rp *report, name string, seed int64, share time.Duration, sw *spanWriter) {
	storm := name == "storm-1000"
	fl := &fleetLayers{coord: newLane("coordinator")}
	var tot layerTotals
	var serialNs float64
	var covered, commitFailures int
	var commits []float64
	first := true
	traced := func() (rep, error) {
		r, err := runFleet(seed, storm, false, fl)
		if err != nil {
			return r, err
		}
		tot.add(fl.coord)
		for _, l := range fl.racks {
			tot.add(l)
		}
		s, c := serialTime(fl.coord, fl.racks)
		serialNs += float64(s)
		covered += c
		commits = append(commits, durations(kCommit, fl.coord)...)
		if fl.ck != nil {
			commitFailures += fl.ck.failures
		}
		if first {
			sw.keep(name, spansKept/2, fl.coord)
			sw.keep(name, spansKept/2, fl.racks...)
			first = false
		}
		fl.coord.spans = nil
		fl.racks = nil
		return r, nil
	}
	// A storm lasts a fraction of a second; a second of untraced storms
	// gives the collector time to run.
	enough := func(u []rep) bool { return !storm || loopSeconds(u) >= 1 }
	u, t, ok := interleave(rp, name, seed, share, traced, enough)
	if !ok {
		return
	}
	n := float64(len(t))
	siteEpochs := n * float64(len(t[0].epochUs))
	rackEpochs := n * t[0].rackEpochs
	rp.set(name+".cluster.split_us_per_epoch", float64(tot.busy[kSplit])/1e3/siteEpochs, "us", "")
	rp.set(name+".cluster.split_calls_per_epoch", float64(tot.calls[kSplit])/siteEpochs, "count",
		"2 in epochs with a ghost re-split")
	if covered == 0 {
		rp.fail("%s: no site epoch made a policy call", name)
	} else {
		rp.set(name+".cluster.serial_us_per_epoch", serialNs/1e3/float64(covered), "us",
			fmt.Sprintf("over the %d of %.0f site epochs with a policy call", covered, siteEpochs))
	}
	rp.set(name+".policy.allocate_us_per_rack_epoch", float64(tot.busy[kAllocate])/1e3/rackEpochs, "us",
		fmt.Sprintf("%.3f calls per rack-epoch", float64(tot.calls[kAllocate])/rackEpochs))
	if storm {
		rp.set(name+".chaos.disturb_us_per_epoch", float64(tot.busy[kDisturb])/1e3/siteEpochs, "us", "")
		rp.setPct(name+".wal.commit_us_p50", percentile(commits, 50), "us")
		rp.set(name+".wal.commits", float64(tot.calls[kCommit])/n, "count", "per storm")
		rp.set(name+".wal.commit_failures", float64(commitFailures)/n, "count", "per storm")
		if tot.calls[kRecover] == 0 {
			rp.fail("%s: the WAL rack never recovered", name)
		} else {
			rp.set(name+".wal.recover_us", float64(tot.busy[kRecover])/1e3/float64(tot.calls[kRecover]), "us",
				fmt.Sprintf("mean of %d recoveries", tot.calls[kRecover]))
		}
	}
	setCommon(rp, name, u, t)
}

func loopSeconds(reps []rep) float64 {
	var s float64
	for _, r := range reps {
		s += r.loopS
	}
	return s
}

// serialTime is, summed over site epochs, the epoch time outside the
// window from the first rack's policy call to the last one's return, and
// the number of site epochs that had a policy call at all.
func serialTime(coord *lane, racks []*lane) (int64, int) {
	var starts, ends []int64
	for _, s := range coord.spans {
		if s.kind == kSiteEpoch {
			starts = append(starts, s.start)
			ends = append(ends, s.end)
		}
	}
	lo := make([]int64, len(starts))
	hi := make([]int64, len(starts))
	for _, l := range racks {
		for _, s := range l.spans {
			if s.kind != kAllocate {
				continue
			}
			e := sort.Search(len(starts), func(i int) bool { return starts[i] > s.start }) - 1
			if e < 0 {
				continue
			}
			if hi[e] == 0 || s.start < lo[e] {
				lo[e] = s.start
			}
			hi[e] = max(hi[e], s.end)
		}
	}
	var serial int64
	covered := 0
	for e := range starts {
		if hi[e] != 0 {
			serial += (ends[e] - starts[e]) - (hi[e] - lo[e])
			covered++
		}
	}
	return serial, covered
}

func daemonLayerPass(rp *report, seed int64, share time.Duration, sw *spanWriter) {
	const name = "daemon-rw"
	dl := &daemonLayers{writer: newLane("writer"), reader: newLane("reader")}
	var tot layerTotals
	var steps, handler, wait []float64
	var bytes, syncs float64
	first := true
	traced := func() (rep, error) {
		r, err := runDaemonRW(seed, false, dl)
		if err != nil {
			return r, err
		}
		dl.writer.spans = dl.writer.spans[:dl.spans]
		tot.add(dl.writer)
		steps = append(steps, durations(kDaemonStep, dl.writer)...)
		handler = append(handler, r.reads.handlerUs...)
		for i, s := range r.reads.statusUs {
			wait = append(wait, s-r.reads.handlerUs[i])
		}
		if first {
			sw.keep(name, spansKept/2, dl.writer)
			sw.keep(name, spansKept/2, dl.reader)
			first = false
		}
		dl.writer.spans = nil
		dl.reader.spans = nil
		bytes += float64(dl.bytes)
		syncs += float64(dl.syncs)
		return r, nil
	}
	u, t, ok := interleave(rp, name, seed, share, traced, always)
	if !ok {
		return
	}
	var status []float64
	for _, r := range u {
		status = append(status, r.reads.statusUs...)
	}
	epochs := float64(len(t)) * t[0].rackEpochs
	rp.setPct(name+".status_p50_us", percentile(status, 50), "us")
	rp.setPct(name+".status_p99_us", percentile(status, 99), "us")
	rp.setPct(name+".daemon.step_us_p50", percentile(steps, 50), "us")
	rp.set(name+".wal.fs_bytes_per_epoch", bytes/epochs, "B", "")
	rp.set(name+".wal.fs_syncs_per_epoch", syncs/epochs, "count", "file and directory syncs")
	rp.set(name+".wal.fs_busy_us_per_epoch", float64(tot.busy[kFS])/1e3/epochs, "us", "")
	rp.setPct(name+".daemon.status_handler_us_p50", percentile(handler, 50), "us")
	rp.setPct(name+".daemon.read_wait_us_p99", percentile(wait, 99), "us")
	setCommon(rp, name, u, t)
}

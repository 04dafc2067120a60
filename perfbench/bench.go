package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"

	"greenhetero/internal/cluster"
	"greenhetero/internal/sim"
)

// rep is one repetition of a workload's unit of work: one rack-year, one
// fleet-week, one storm, or one daemon-rw session.
type rep struct {
	setupS     float64   // from nothing to the first epoch
	loopS      float64   // epoch work, excluding set-up and forced GCs
	rackEpochs float64   // simulated rack·epochs (daemon-rw: committed epochs)
	epochUs    []float64 // per rack epoch or per site epoch
	mem        memDelta  // over the epoch loop
	liveHeap   uint64    // live heap at the fullest point of the run
	out        outputs
	ops        int64 // benchmark operations attempted
	failed     int64 // operations that returned an error or a non-200
	reads      *readStats
}

// outputs are a repetition's simulated results; a speed-only change
// leaves every field identical.
type outputs struct {
	EPU     float64 `json:"sim_mean_epu"`
	GridKWh float64 `json:"sim_grid_kwh"`
	Served  float64 `json:"sim_served_frac"`
	// Digest hashes every per-epoch record bit for bit.
	Digest string `json:"digest"`
}

type memCounters struct {
	mallocs, numGC, pauseNs uint64
}

type memDelta struct {
	allocs, gcCycles, gcPauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (a memCounters) to(b memCounters) memDelta {
	return memDelta{allocs: b.mallocs - a.mallocs, gcCycles: b.numGC - a.numGC, gcPauseNs: b.pauseNs - a.pauseNs}
}

// liveHeap collects garbage and returns the bytes still reachable. The
// second collection empties what sync.Pools kept through the first (the
// encoders' buffers, say), so the figure does not depend on which reads
// happened last.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// digest accumulates simulated records bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) f(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) i(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		d.h.Write(b[:])
	}
}

func (d *digest) epoch(e sim.EpochResult) {
	d.i(e.Epoch, int(e.Case))
	d.f(e.Intensity, e.RenewableW, e.DemandW, e.SupplyW, e.GridW, e.BatteryOutW,
		e.BatteryInW, e.BatterySoC, e.Perf, e.UsedW, e.EPU)
	d.f(e.Fractions...)
	if e.TrainingRun {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// rackOutputs summarizes one rack's run; every epoch was served.
func rackOutputs(res *sim.Result) outputs {
	d := newDigest()
	for _, e := range res.Epochs {
		d.epoch(e)
	}
	return outputs{EPU: res.MeanEPU(), GridKWh: res.GridEnergyWh() / 1e3, Served: 1, Digest: d.sum()}
}

// fleetOutputs summarizes a fleet run. Served is the share of rack·epochs
// after each rack's startup that the rack served; chaos-scheduled
// failures and quarantines are simulated outcomes and lower it.
func fleetOutputs(res *cluster.FleetResult) outputs {
	d := newDigest()
	var served, due int
	for i, rr := range res.Racks {
		for _, e := range rr.Result.Epochs {
			d.epoch(e)
		}
		h := res.Health[i]
		d.i(h.ServedEpochs, h.FailedEpochs, h.QuarantinedEpochs, h.AbsentEpochs, h.PartitionedEpochs, h.Recoveries)
		served += h.ServedEpochs
		due += len(res.Site) - h.AbsentEpochs
	}
	for _, s := range res.Site {
		d.i(s.Epoch, s.DownRacks, s.QuarantinedRacks)
		d.f(s.RenewableW, s.BidW, s.SupplyW, s.GridW, s.BatteryOutW, s.BatteryInW, s.BatterySoC, s.RedistributedW)
	}
	d.i(res.BatteryCycles)
	out := outputs{EPU: res.MeanEPU(), GridKWh: res.TotalGridWh() / 1e3, Digest: d.sum()}
	if due > 0 {
		out.Served = float64(served) / float64(due)
	}
	return out
}

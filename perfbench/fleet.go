package main

import (
	"fmt"
	"runtime"

	"greenhetero/internal/cluster"
)

// epochClock marks where each site epoch of a cluster.Run starts and
// ends. Asked to, it measures the live heap before the last epoch, when
// every session and nearly every result is held. In the traced run it
// also opens a site-epoch span on the coordinator's lane and stamps the
// epoch on every rack's lane; it runs on the coordinator's goroutine
// between barriers, while no rack worker runs.
type epochClock struct {
	last   int // the epoch to measure the heap before; -1 for none
	starts []int64
	ends   []int64
	m0     memCounters
	heap   uint64

	// Traced run only: the coordinator's and the racks' lanes, and the
	// open site span.
	l     *lane
	racks []*lane
	site  int32
}

func newEpochClock(epochs int, heap bool, l *lane, racks []*lane) *epochClock {
	last := -1
	if heap {
		last = epochs - 1
	}
	return &epochClock{
		last:   last,
		starts: make([]int64, 0, epochs),
		ends:   make([]int64, 0, epochs),
		l:      l,
		racks:  racks,
	}
}

// mark starts site epoch e and ends the one before.
func (c *epochClock) mark(e int) {
	if e == 0 {
		c.m0 = readMem()
	} else {
		c.endEpoch()
	}
	if e == c.last {
		c.heap = liveHeap()
	}
	if c.l != nil {
		c.l.epoch = int32(e)
		for _, r := range c.racks {
			r.epoch = int32(e)
		}
		c.site = c.l.begin(kSiteEpoch)
	}
	c.starts = append(c.starts, now())
}

func (c *epochClock) endEpoch() {
	c.ends = append(c.ends, now())
	if c.l != nil {
		c.l.end(c.site)
	}
}

// siteClock is the storm's Disturber: it marks each site epoch at its
// start, then forwards to the chaos engine.
type siteClock struct {
	*epochClock
	inner cluster.Disturber
}

func (c siteClock) Disturb(e int, d *cluster.Disturbance) {
	c.mark(e)
	if c.l == nil {
		c.inner.Disturb(e, d)
		return
	}
	i := c.l.begin(kDisturb)
	c.inner.Disturb(e, d)
	c.l.end(i)
}

// splitClock is the undisturbed fleet's epoch clock: it wraps the
// allocator, whose Weights runs exactly once per site epoch when no rack
// is missing, so the fleet runs without a Disturber, as it would in
// production. A site epoch then runs from one split to the next: the
// racks' steps, the bookkeeping and settle of its epoch, and the bids of
// the next.
type splitClock struct {
	*epochClock
	inner cluster.Allocator
}

func (c splitClock) Name() string { return c.inner.Name() }

func (c splitClock) Weights(bids []float64, site cluster.Supply, out []float64) error {
	c.mark(len(c.starts))
	return c.inner.Weights(bids, site, out)
}

// fleetLayers is the traced fleet's instrumentation: the coordinator's
// lane plus one lane per rack, written only by that rack's worker.
type fleetLayers struct {
	coord *lane
	racks []*lane
	ck    *tracedCheckpointer // nil for an undisturbed fleet
}

// runFleet runs one fleet-week (storm false) or one storm (storm true)
// and times every site epoch. With tl set, the allocator, the
// checkpointer, the chaos engine and every rack's policy are wrapped.
func runFleet(seed int64, storm, heap bool, tl *fleetLayers) (rep, error) {
	t0 := now()
	var (
		cfg cluster.Config
		err error
	)
	if storm {
		st, err := stormConfig(seed)
		if err != nil {
			return rep{}, err
		}
		cfg, err = stormFleet(st)
		if err != nil {
			return rep{}, err
		}
	} else {
		cfg, err = fleetWeekConfig(seed)
		if err != nil {
			return rep{}, err
		}
	}
	n := len(cfg.Racks)
	var coord *lane
	if tl != nil {
		coord = tl.coord
		cfg.Allocator = &tracedAllocator{inner: cfg.Allocator, l: coord}
		tl.ck = nil
		if cfg.Checkpointer != nil {
			tl.ck = &tracedCheckpointer{inner: cfg.Checkpointer, l: coord}
			cfg.Checkpointer = tl.ck
		}
		racks := append([]cluster.RackConfig(nil), cfg.Racks...)
		tl.racks = make([]*lane, n)
		for i := range racks {
			tl.racks[i] = newLane(fmt.Sprintf("rack/%d", i))
			racks[i].Policy = &tracedPolicy{inner: racks[i].Policy, l: tl.racks[i]}
		}
		cfg.Racks = racks
	}
	var racks []*lane
	if tl != nil {
		racks = tl.racks
	}
	clock := newEpochClock(cfg.Epochs, heap, coord, racks)
	if storm {
		cfg.Disturber = siteClock{epochClock: clock, inner: cfg.Disturber}
	} else {
		cfg.Allocator = splitClock{epochClock: clock, inner: cfg.Allocator}
	}

	res, err := cluster.Run(cfg)
	r := rep{ops: 1}
	if err != nil {
		r.failed = 1
		return r, err
	}
	if len(clock.starts) != len(res.Site) {
		r.failed = 1
		return r, fmt.Errorf("epoch clock marked %d of %d site epochs", len(clock.starts), len(res.Site))
	}
	clock.endEpoch()
	r.mem = clock.m0.to(readMem())
	r.setupS = float64(clock.starts[0]-t0) / 1e9
	r.epochUs = make([]float64, len(clock.starts))
	for e := range clock.starts {
		d := clock.ends[e] - clock.starts[e]
		r.epochUs[e] = float64(d) / 1e3
		r.loopS += float64(d) / 1e9
	}
	r.ops = int64(len(res.Site))
	r.rackEpochs = float64(n * len(res.Site))
	r.liveHeap = clock.heap
	r.out = fleetOutputs(res)
	runtime.KeepAlive(res)
	return r, nil
}

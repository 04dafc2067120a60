package main

import (
	"fmt"
	"time"

	"greenhetero/internal/chaos"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
	"greenhetero/internal/runner"
	"greenhetero/internal/scenario"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/workload"
)

// Every generated input derives from the --seed flag through
// runner.DeriveSeed with a per-input key, so one seed fixes the whole
// workload and no two inputs share a stream.

const (
	// epochsPerDay is the paper's 15-minute scheduling epoch.
	epochsPerDay = 96
	// stormPath is the committed stress scenario, relative to the root of
	// the checkout the benchmark runs in.
	stormPath = "scenarios/storm-1000.json"
	// fleetWeekDays is the fleet-week run length.
	fleetWeekDays = 7
	// daemonEpochs is one daemon-rw repetition: six weeks, so the
	// daemon's 1024-epoch history ring is full for most of the run and
	// its snapshots reach their steady size.
	daemonEpochs = 42 * epochsPerDay
)

// Table IV server combinations, five servers per group.
var (
	comb1 = []string{server.XeonE52620, server.CoreI54460}
	comb5 = []string{server.XeonE52620, server.XeonE52603, server.CoreI54460}
)

func buildRack(name string, combo []string) (*server.Rack, error) {
	groups := make([]server.Group, 0, len(combo))
	for _, id := range combo {
		spec, err := server.Lookup(id)
		if err != nil {
			return nil, err
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	return server.NewRack(name, groups...)
}

// rackConfig is one rack under adaptive GreenHetero running SPECjbb on a
// High solar trace of the given length, with the paper's 1000 W grid
// budget. key namespaces the seeds.
func rackConfig(seed int64, key string, combo []string, days int) (sim.Config, error) {
	rack, err := buildRack(key, combo)
	if err != nil {
		return sim.Config{}, err
	}
	tr, err := solar.Generate(solar.Config{
		Profile:   solar.High,
		PeakWatts: 2200,
		Days:      days,
		Step:      15 * time.Minute,
		Seed:      runner.DeriveSeed(seed, key+"/solar"),
	})
	if err != nil {
		return sim.Config{}, err
	}
	w, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Rack:        rack,
		Workload:    w,
		Policy:      policy.Solver{Adaptive: true},
		Solar:       tr,
		Epochs:      tr.Len(),
		GridBudgetW: 1000,
		Seed:        runner.DeriveSeed(seed, key+"/noise"),
	}, nil
}

// rackYearConfig is the rack-year input: one Comb5 rack for 365 days.
func rackYearConfig(seed int64) (sim.Config, error) {
	return rackConfig(seed, "rack-year", comb5, 365)
}

// daemonConfig is the daemon-rw session: one Comb1 rack.
func daemonConfig(seed int64) (sim.Config, error) {
	return rackConfig(seed, "daemon-rw", comb1, daemonEpochs/epochsPerDay)
}

// stormConfig loads the committed storm scenario with its chaos and solar
// seeds replaced by ones derived from seed, and builds it.
func stormConfig(seed int64) (chaos.StormConfig, error) {
	sc, err := loadStorm(seed)
	if err != nil {
		return chaos.StormConfig{}, err
	}
	return sc.BuildStorm()
}

// fleetWeekConfig is storm-1000's fleet without the chaos block and the
// staggered startup, run for a week.
func fleetWeekConfig(seed int64) (cluster.Config, error) {
	sc, err := loadStorm(seed)
	if err != nil {
		return cluster.Config{}, err
	}
	sc.Name = "fleet-week"
	sc.Stress.Chaos = nil
	sc.Stress.FleetGen.Startup = nil
	sc.Solar.Days = fleetWeekDays
	sc.Epochs = fleetWeekDays * epochsPerDay
	st, err := sc.BuildStorm()
	if err != nil {
		return cluster.Config{}, err
	}
	return st.Fleet, nil
}

func loadStorm(seed int64) (*scenario.Scenario, error) {
	sc, err := scenario.LoadFile(stormPath)
	if err != nil {
		return nil, err
	}
	if sc.Stress == nil || sc.Stress.FleetGen == nil || sc.Solar == nil {
		return nil, fmt.Errorf("%s: not a generated-fleet stress scenario", stormPath)
	}
	sc.Seed = runner.DeriveSeed(seed, "storm/chaos")
	sc.Solar.Seed = runner.DeriveSeed(seed, "storm/solar")
	return sc, nil
}

// stormFleet wires a storm the way chaos.Run does, from the package's
// public pieces, so the benchmark can wrap the engine and the WAL harness.
// Every storm run checks the result against chaos.Run itself.
func stormFleet(st chaos.StormConfig) (cluster.Config, error) {
	eng, err := chaos.NewEngine(st.Chaos)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := st.Fleet
	cfg.Disturber = eng
	if st.Chaos.WALRack < 0 {
		return cfg, nil
	}
	snapEvery := st.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 8
	}
	h, err := chaos.NewHarness(st.Chaos.WALRack, runner.DeriveSeed(st.Chaos.Seed, "chaos/walfs"), snapEvery, eng.DaemonArm())
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Checkpointer = h
	return cfg, nil
}

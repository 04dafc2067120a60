// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads for a fixed wall-clock budget, repeating the
// workload's unit of work in process, prints every end-to-end metric by
// name and unit, and checks the simulated outputs: against the reference
// values in reference.json at the default seed, and against invariants
// and run-to-run determinism at every seed. With -trace 1 it runs the
// layer pass instead (see layers.go). README.md documents the metrics.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload rack-year --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when an
// output check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeed is the seed reference.json was recorded at.
const defaultSeed = 1

var workloads = []string{"rack-year", "fleet-week", "storm-1000", "daemon-rw"}

// hardStop bounds a whole run, set-up and checks included, well inside
// the three minutes a run may take.
const hardStop = 150 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, notes and check failures.
type report struct {
	w         io.Writer
	metrics   map[string]metric
	problems  []string
	attempted int64
	failed    int64
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-48s %14.6g %-6s %s\n", name, v, unit, note)
}

// setPct sets a percentile metric, or records a problem when the samples
// cannot support it.
func (r *report) setPct(name string, p pct, unit string) {
	if !p.OK {
		r.fail("%s: %s", name, p)
		return
	}
	r.set(name, p.Value, unit, p.String())
}

// setEpochPct sets an epoch-latency percentile: the interquartile mean of
// the percentiles of blocks of pooled repetitions (blockPercentiles).
// Every epoch of every repetition in a block counts, so tails that strike
// any epoch (a GC cycle, a wait on the daemon's lock, a snapshot) stay
// in; trimming a quarter of the blocks from each end keeps one slow spell
// of the host from setting the figure.
func (r *report) setEpochPct(name string, reps []rep, p float64) {
	xs := make([][]float64, len(reps))
	var all []float64
	for i, rp := range reps {
		xs[i] = rp.epochUs
		all = append(all, rp.epochUs...)
	}
	b := blockPercentiles(xs, p)
	if !b.First.OK {
		r.fail("%s: %s", name, b.First)
		return
	}
	r.set(name, interquartileMean(b.Values), "us",
		fmt.Sprintf("p%g, interquartile mean of %d blocks of %d repetitions (first block n=%d beyond=%d); pooled over all %d repetitions %s",
			p, len(b.Values), b.K, b.First.N, b.First.Beyond, len(reps), percentile(all, p)))
}

func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.w, "FAIL", msg)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rack-year, fleet-week, storm-1000 or daemon-rw")
	seed := fs.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "wall-clock seconds to measure for")
	traced := fs.Int("trace", 0, "1 runs the traced layer pass instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0 or 1\n", workloads)
		return 2
	}
	if _, err := os.Stat(stormPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of the repository: %v\n", err)
		return 1
	}

	host := hostInfo(*seed)
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hb))

	rp := &report{w: stdout, metrics: map[string]metric{}}
	budget := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		layerPass(rp, *seed, budget)
	} else {
		measureWorkload(rp, *name, *seed, budget)
	}

	res := result{
		Correct:   len(rp.problems) == 0 && rp.failed == 0,
		Attempted: max(rp.attempted, 1),
		Failed:    rp.failed,
		Metrics:   rp.metrics,
	}
	if len(rp.problems) > 0 && res.Failed == 0 {
		res.Failed = int64(len(rp.problems))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce runs one repetition of the named workload.
// With heap set it also measures the live heap, which forces a GC.
func runOnce(name string, seed int64, heap bool) (rep, error) {
	switch name {
	case "rack-year":
		return runRackYear(seed, heap, nil)
	case "fleet-week":
		return runFleet(seed, false, heap, nil)
	case "storm-1000":
		return runFleet(seed, true, heap, nil)
	case "daemon-rw":
		return runDaemonRW(seed, heap, nil)
	}
	return rep{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// minEpochSamples is enough epochs for a p99 with ten samples beyond it.
	minEpochSamples = 100 * minBeyond
	// minReps is the fewest repetitions a run makes: enough for the
	// medians over repetitions to outvote a slow spell of the host.
	minReps = 8
)

// repeat runs a workload's unit of work until the budget is spent, the
// run has made minReps repetitions, and the percentiles have enough
// samples.
func repeat(rp *report, name string, seed int64, budget time.Duration, started int64) []rep {
	var reps []rep
	deadline := now() + int64(budget)
	samples := 0
	for len(reps) < minReps || now() < deadline || samples < minEpochSamples {
		if now()-started > int64(hardStop) {
			rp.fail("%s: stopped at the run's time limit after %d repetitions", name, len(reps))
			break
		}
		r, err := runOnce(name, seed, false)
		rp.attempted += r.ops
		rp.failed += r.failed
		if err != nil {
			rp.fail("%s: repetition %d: %v", name, len(reps)+1, err)
			break
		}
		reps = append(reps, r)
		samples += len(r.epochUs)
	}
	return reps
}

// measureWorkload is the untraced run: the end-to-end metrics of one
// workload.
func measureWorkload(rp *report, name string, seed int64, budget time.Duration) {
	started := now()
	// An untimed first repetition warms the process up and measures the
	// live heap while the benchmark itself holds nothing; its forced GC
	// would otherwise move collector work out of a timed repetition.
	hr, err := runOnce(name, seed, true)
	rp.attempted += hr.ops
	rp.failed += hr.failed
	if err != nil {
		rp.fail("%s: heap repetition: %v", name, err)
		return
	}
	reps := repeat(rp, name, seed, budget, started)
	if len(reps) == 0 {
		return
	}
	var setups, rates []float64
	var allocs, rackEpochs float64
	for _, r := range reps {
		setups = append(setups, r.setupS)
		rates = append(rates, r.rackEpochs/r.loopS)
		allocs += float64(r.mem.allocs)
		rackEpochs += r.rackEpochs
	}
	n := len(reps)
	sp, err := spread(rates)
	if err != nil {
		rp.fail("%s: %v", name, err)
		return
	}
	rp.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", n))
	rp.set("rack_epochs_per_s", median(rates), "1/s", fmt.Sprintf("median of %d repetitions, IQR/median %.3f", n, sp))
	rp.setEpochPct("epoch_p50_us", reps, 50)
	rp.setEpochPct("epoch_p99_us", reps, 99)
	rp.set("peak_heap_mb", float64(hr.liveHeap)/1e6, "MB", "live heap at the fullest point of the run")
	rp.set("allocs_per_rack_epoch", allocs/rackEpochs, "count", fmt.Sprintf("over %.0f rack-epochs", rackEpochs))
	out := reps[0].out
	rp.set("sim_mean_epu", out.EPU, "frac", "simulated")
	rp.set("sim_grid_kwh", out.GridKWh, "kWh", "simulated")
	rp.set("sim_served_frac", out.Served, "frac", "simulated")
	if name == "daemon-rw" {
		var status, late []float64
		var history int64
		for _, r := range reps {
			status = append(status, r.reads.statusUs...)
			late = append(late, r.reads.lateUs...)
			history += r.reads.history
		}
		fmt.Fprintf(rp.w, "daemon-rw reads: /status %s; %s (us, open loop from due time); %d /history reads; reader lateness %s; %s\n",
			percentile(status, 50), percentile(status, 99), history, percentile(late, 50), percentile(late, 99))
	}
	checkOutputs(rp, name, seed, append(reps, hr))
	if name == "storm-1000" {
		checkStormTwin(rp, seed, out)
	}
	fmt.Fprintf(rp.w, "%s: %d repetitions, %.1f s in all\n", name, n, float64(now()-started)/1e9)
}

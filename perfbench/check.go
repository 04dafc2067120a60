package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"greenhetero/internal/chaos"
)

// reference.json holds each workload's simulated outputs at defaultSeed.
//
//go:embed reference.json
var referenceJSON []byte

func references() (map[string]outputs, error) {
	var refs map[string]outputs
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkOutputs fails the run when a repetition's simulated outputs differ
// from the first repetition's, break an invariant, or, at the default
// seed, differ from the recorded reference.
func checkOutputs(rp *report, name string, seed int64, reps []rep) {
	first := reps[0].out
	for i, r := range reps[1:] {
		if r.out != first {
			rp.fail("%s: repetition %d outputs %+v differ from repetition 1's %+v", name, i+2, r.out, first)
		}
	}
	checkInvariants(rp, name, first)
	out, err := json.Marshal(first)
	if err != nil {
		rp.fail("%s: %v", name, err)
		return
	}
	fmt.Fprintf(rp.w, "%s outputs: %s\n", name, out)
	if seed != defaultSeed {
		return
	}
	refs, err := references()
	if err != nil {
		rp.fail("%v", err)
		return
	}
	want, ok := refs[name]
	if !ok {
		rp.fail("%s: no reference outputs recorded", name)
		return
	}
	if first != want {
		rp.fail("%s: outputs %+v differ from the reference %+v", name, first, want)
	}
}

// finite reports whether v is a usable number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func checkInvariants(rp *report, name string, o outputs) {
	if !finite(o.EPU) || o.EPU <= 0 || o.EPU > 1 {
		rp.fail("%s: mean EPU %v outside (0, 1]", name, o.EPU)
	}
	if !finite(o.GridKWh) || o.GridKWh <= 0 {
		rp.fail("%s: grid energy %v kWh not positive", name, o.GridKWh)
	}
	if !finite(o.Served) || o.Served <= 0 || o.Served > 1 {
		rp.fail("%s: served fraction %v outside (0, 1]", name, o.Served)
	}
}

// checkStormTwin runs the storm through chaos.Run itself and checks that
// the benchmark's own wiring of the same pieces produced the same run.
func checkStormTwin(rp *report, seed int64, got outputs) {
	st, err := stormConfig(seed)
	if err != nil {
		rp.fail("storm-1000 twin: %v", err)
		return
	}
	res, _, err := chaos.Run(st)
	if err != nil {
		rp.fail("storm-1000 twin: chaos.Run: %v", err)
		return
	}
	if want := fleetOutputs(res); want != got {
		rp.fail("storm-1000: benchmark wiring gave %+v, chaos.Run gave %+v", got, want)
	}
}

// hostInfo describes the machine and the code measured.
func hostInfo(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"seed":          seed,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and JSON files (the
// scenarios, the references) under root, so a result names the code it
// measured even where there is no git repository (the commit is then
// "unknown").
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".json")) {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

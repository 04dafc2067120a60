package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 2, 7.75, 4}, [3]float64{2, 3.5, 7.75}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
}

func TestSpread(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread of a zero median did not fail")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of 1000 samples is the 990th value with exactly 10 above it.
	p := percentile(ramp(1000), 99)
	if !p.OK || p.Value != 990 || p.N != 1000 || p.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v", p)
	}
	// One sample fewer leaves only 9 above the 99th percentile.
	p = percentile(ramp(999), 99)
	if p.OK || !math.IsNaN(p.Value) || p.N != 999 || p.Beyond != 9 {
		t.Errorf("p99 of 1..999 = %+v, want refused", p)
	}
	// The median of 21 samples has 10 above it.
	if p := percentile(ramp(21), 50); !p.OK || p.Value != 11 {
		t.Errorf("p50 of 1..21 = %+v", p)
	}
	if p := percentile(ramp(19), 50); p.OK {
		t.Errorf("p50 of 1..19 = %+v, want refused", p)
	}
	if p := percentile(nil, 50); p.OK || p.N != 0 {
		t.Errorf("p50 of nothing = %+v", p)
	}
}

func TestPercentileStringAlwaysGivesN(t *testing.T) {
	ok := percentile(ramp(1000), 99).String()
	refused := percentile(ramp(50), 99).String()
	for _, s := range []string{ok, refused} {
		if !strings.Contains(s, "n=") {
			t.Errorf("%q does not state the sample count", s)
		}
	}
	if !strings.Contains(refused, "refused") {
		t.Errorf("%q does not say the percentile was refused", refused)
	}
}

// reps returns count repetitions of n samples each; repetition i holds
// base(i) + 0, 1, …, n-1.
func reps(count, n int, base func(i int) float64) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		for j := 0; j < n; j++ {
			out[i] = append(out[i], base(i)+float64(j))
		}
	}
	return out
}

func TestBlockPercentilesPoolTheFewestRepetitions(t *testing.T) {
	// 100 samples per repetition leave one beyond p99, so a block needs
	// ten repetitions; 25 repetitions fill two blocks.
	b := blockPercentiles(reps(25, 100, func(int) float64 { return 0 }), 99)
	if !b.First.OK || b.K != 10 || b.First.N != 1000 || b.First.Beyond != 10 {
		t.Fatalf("got %+v, want k=10, n=1000, beyond=10", b)
	}
	if len(b.Values) != 2 || b.Values[0] != 98 || b.Values[1] != 98 {
		t.Errorf("block p99s = %v, want [98 98]", b.Values)
	}
}

func TestBlockPercentilesKeepRunOrder(t *testing.T) {
	b := blockPercentiles(reps(3, 21, func(i int) float64 { return []float64{0, 1000, 10}[i] }), 50)
	if !b.First.OK || b.K != 1 {
		t.Fatalf("got %+v, want k=1", b)
	}
	if want := []float64{10, 1010, 20}; len(b.Values) != 3 || b.Values[0] != want[0] || b.Values[1] != want[1] || b.Values[2] != want[2] {
		t.Errorf("block p50s = %v, want %v", b.Values, want)
	}
}

func TestBlockPercentilesRefuseWithoutAFullBlock(t *testing.T) {
	b := blockPercentiles(reps(9, 100, func(int) float64 { return 0 }), 99)
	if b.First.OK || len(b.Values) != 0 {
		t.Fatalf("p99 over 900 samples accepted: %+v", b)
	}
	if s := b.First.String(); !strings.Contains(s, "refused") || !strings.Contains(s, "n=900") {
		t.Errorf("refusal %q does not say so with n", s)
	}
	if b := blockPercentiles(nil, 50); b.First.OK {
		t.Error("percentile of no repetitions accepted")
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 500}, 9},
		{[]float64{100, 1, 2, 3}, 2.5},
		// Two clusters: the median would read 10; the mean of the middle
		// four sees that the clusters share them.
		{[]float64{10, 10, 10, 10, 20, 20, 20, 20}, 15},
	} {
		if got := interquartileMean(c.in); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(interquartileMean(nil)) {
		t.Error("interquartile mean of no samples is not NaN")
	}
}

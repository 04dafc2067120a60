package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a percentile before the
// benchmark reports it: with fewer, the value is one or two stray samples,
// not a property of the distribution.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean drops ⌊(n+1)/4⌋ of the n values, about a quarter,
// from each end of xs in sorted order and returns the mean of the rest: as
// robust as the median to a few wild values, but it moves smoothly when
// the values fall in two clusters and their shares change, where the
// median jumps from one cluster to the other. NaN for no samples.
func interquartileMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	cut := (n + 1) / 4
	s := sorted(xs)[cut : n-cut]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// As in CPython: clamp the rank to 1..n-1, then interpolate (or
		// extrapolate, for tiny n) with exact integer weights.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile range as a share of the median, the
// benchmark's noise measure.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread of a zero median")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// pct is a percentile together with the evidence behind it.
type pct struct {
	P      float64 // the percentile asked for, in (0, 100)
	Value  float64
	N      int // samples
	Beyond int // samples ranked above the percentile
	OK     bool
}

// percentile returns the p-th percentile of xs by the nearest-rank rule
// and reports whether at least minBeyond samples rank above it. A
// percentile without that support is refused (OK false, Value NaN); n is
// always reported.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	out := pct{P: p, N: n, Value: math.NaN()}
	if n == 0 || p <= 0 || p >= 100 {
		return out
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	out.Beyond = n - rank
	if out.Beyond < minBeyond {
		return out
	}
	out.Value = sorted(xs)[rank-1]
	out.OK = true
	return out
}

// String prints the percentile with its sample count, or the refusal.
func (p pct) String() string {
	if !p.OK {
		return fmt.Sprintf("p%g refused: n=%d, %d beyond (need %d)", p.P, p.N, p.Beyond, minBeyond)
	}
	return fmt.Sprintf("p%g=%.6g n=%d beyond=%d", p.P, p.Value, p.N, p.Beyond)
}

// blocks holds a percentile taken block by block over pooled
// repetitions.
type blocks struct {
	First  pct       // the first block's, for its sample counts
	K      int       // repetitions pooled per block
	Values []float64 // every whole block's percentile, in run order
}

// blockPercentiles pools consecutive repetitions into blocks of k, with k
// the fewest that give the p-th percentile minBeyond samples beyond it,
// and returns every whole block's percentile. Repetitions that do not
// fill a last block are left out. First.OK is false when not even one
// block can be filled; First then counts every sample.
func blockPercentiles(reps [][]float64, p float64) blocks {
	var pool []float64
	for k := 1; k <= len(reps); k++ {
		pool = append(pool, reps[k-1]...)
		first := percentile(pool, p)
		if !first.OK {
			continue
		}
		out := blocks{First: first, K: k, Values: []float64{first.Value}}
		for i := k; i+k <= len(reps); i += k {
			var block []float64
			for _, r := range reps[i : i+k] {
				block = append(block, r...)
			}
			b := percentile(block, p)
			if !b.OK {
				break
			}
			out.Values = append(out.Values, b.Value)
		}
		return out
	}
	return blocks{First: percentile(pool, p)}
}

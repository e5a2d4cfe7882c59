package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 of 300 samples is the 3rd-worst draw, not a percentile.
const minBeyond = 10

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank index (0-based) of percentile p in n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile returns the nearest-rank percentile p (0 < p ≤ 100) of an
// ascending slice. It refuses a percentile above the median that leaves
// fewer than minBeyond samples beyond it.
func percentile(asc []float64, p float64) (float64, error) {
	n := len(asc)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	i := rank(n, p)
	if beyond := n - 1 - i; p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	return asc[i], nil
}

// median is the nearest-rank p50 (0 for no samples).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	asc := sorted(v)
	return asc[rank(len(asc), 50)]
}

// tailLadder is tried from the top when a run is too short for the
// percentile a workload asks for.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns percentile want, or the highest rung of tailLadder below it
// that the sample count supports, and which percentile that was. A
// full-size run always supports want; the fallback exists so a shortened
// run still reports a number and says which.
func tail(asc []float64, want float64) (v, used float64) {
	if v, err := percentile(asc, want); err == nil {
		return v, want
	}
	for _, p := range tailLadder {
		if p >= want {
			continue
		}
		if v, err := percentile(asc, p); err == nil {
			return v, p
		}
	}
	return 0, 0
}

// pctOr0 is percentile for per-layer rows, where a layer that did no work
// on this workload reports 0 and a too-short run falls down the ladder.
func pctOr0(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	x, _ := tail(sorted(v), p)
	return x
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

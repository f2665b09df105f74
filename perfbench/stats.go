package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a p95 over 40 samples rests on two values and moves
// with every run, so it is refused instead of printed.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs and the number of samples strictly after it in sorted order. It
// refuses a tail percentile with fewer than minBeyond samples beyond it;
// the median (p = 50) is always allowed on a non-empty set.
func percentile(xs []float64, p float64) (value float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("percentile p%g of an empty sample", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	beyond = len(s) - rank
	if p > 50 && beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(s), beyond, minBeyond)
	}
	return s[rank-1], beyond, nil
}

// median is the nearest-rank p50 of a non-empty sample, 0 for an empty
// one.
func median(xs []float64) float64 {
	v, _, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

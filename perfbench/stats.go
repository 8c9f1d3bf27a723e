package main

import (
	"math"
	"sort"
)

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs with at least ten samples beyond
// it: the eleventh-largest value, with its percentile rank. Fewer than
// eleven samples leave no such percentile, and the minimum is returned
// at rank 0.
func tail(xs []float64) (v float64, pct int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	k := len(s) - 11
	if k < 0 {
		return s[0], 0
	}
	return s[k], int(math.Floor(100 * float64(k+1) / float64(len(s))))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

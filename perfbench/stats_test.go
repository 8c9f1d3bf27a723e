package main

import "testing"

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%d, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 96 || pct != 0 {
		t.Fatalf("tail of 5 samples = %v at p%d, want the minimum at p0", v, pct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

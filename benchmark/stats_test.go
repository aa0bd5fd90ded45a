package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("p%g = %g, want %g", q*100, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// → [3.5, 13.5, 31.0]
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31.0}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("quartile %d = %g, want %g", i+1, pair[0], pair[1])
		}
	}
}

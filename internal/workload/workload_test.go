package workload

import (
	"math"
	"testing"
)

func sample(g Generator, n int) []int {
	counts := make([]int, g.N())
	for i := 0; i < n; i++ {
		k := g.Next()
		if k < 0 || k >= g.N() {
			panic("key out of range")
		}
		counts[k]++
	}
	return counts
}

func TestZipfianRange(t *testing.T) {
	g := NewZipfian(300, 1.1, 1)
	for i := 0; i < 10000; i++ {
		if k := g.Next(); k < 0 || k >= 300 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfianSkewOrdersPopularity(t *testing.T) {
	g := NewZipfian(100, 1.1, 2)
	counts := sample(g, 200000)
	// Popularity must broadly decrease with index: compare decile sums.
	first, last := 0, 0
	for i := 0; i < 10; i++ {
		first += counts[i]
	}
	for i := 90; i < 100; i++ {
		last += counts[i]
	}
	if first <= last*5 {
		t.Fatalf("zipf 1.1 not skewed enough: first decile %d, last decile %d", first, last)
	}
	// Key 0 must be the most requested.
	for i := 1; i < 100; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("key %d more popular than key 0 (%d > %d)", i, counts[i], counts[0])
		}
	}
}

func TestZipfianMatchesAnalyticWeights(t *testing.T) {
	n := 50
	g := NewZipfian(n, 1.0, 3)
	weights := g.Weights()
	total := 400000
	counts := sample(NewZipfian(n, 1.0, 3), total)
	for i := 0; i < 5; i++ {
		got := float64(counts[i]) / float64(total)
		if math.Abs(got-weights[i]) > 0.01 {
			t.Errorf("key %d empirical %v vs analytic %v", i, got, weights[i])
		}
	}
	// Weights must sum to 1.
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestZipfianZeroSkewIsUniform(t *testing.T) {
	g := NewZipfian(10, 0, 4)
	counts := sample(g, 100000)
	for i, c := range counts {
		if math.Abs(float64(c)/100000-0.1) > 0.02 {
			t.Fatalf("skew-0 zipf not uniform: key %d has %d", i, c)
		}
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a := NewZipfian(300, 1.1, 99)
	b := NewZipfian(300, 1.1, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestZipfianPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipfian(0, 1, 1) },
		func() { NewZipfian(10, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPopularityCDF(t *testing.T) {
	// Figure 9's qualitative claims: higher skew concentrates mass faster,
	// and the CDF is monotone in [0, 1].
	for _, skew := range []float64{0.5, 0.8, 1.1, 1.4} {
		cdf := PopularityCDF(300, skew, 50)
		if len(cdf) != 50 {
			t.Fatalf("cdf length %d", len(cdf))
		}
		prev := 0.0
		for i, v := range cdf {
			if v < prev || v > 1 {
				t.Fatalf("skew %v: cdf not monotone at %d: %v", skew, i, v)
			}
			prev = v
		}
	}
	lo := PopularityCDF(300, 0.5, 50)
	hi := PopularityCDF(300, 1.4, 50)
	if hi[4] <= lo[4] {
		t.Fatalf("skew 1.4 top-5 share (%v) should exceed skew 0.5's (%v)", hi[4], lo[4])
	}
	// Paper's example reading of Figure 9: at high skew the top handful of
	// objects dominates; at 1.4 the top 5 objects should carry well over
	// half of all requests, while at 0.5 they carry well under a third.
	if hi[4] < 0.5 {
		t.Errorf("skew 1.4: top-5 share %v, expected > 0.5", hi[4])
	}
	if lo[4] > 0.33 {
		t.Errorf("skew 0.5: top-5 share %v, expected < 0.33", lo[4])
	}
	// top > n clamps.
	if got := PopularityCDF(10, 1, 50); len(got) != 10 {
		t.Fatalf("clamped cdf length %d", len(got))
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	g := NewScrambledZipfian(300, 1.1, 5)
	counts := sample(g, 100000)
	// The hottest key should NOT be key 0 in general (it is scattered), but
	// the distribution must still be skewed: max count far above mean.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := 100000 / 300
	if maxC < mean*10 {
		t.Fatalf("scrambled zipfian lost its skew: max %d vs mean %d", maxC, mean)
	}
}

func TestUniform(t *testing.T) {
	g := NewUniform(20, 6)
	counts := sample(g, 200000)
	for i, c := range counts {
		if math.Abs(float64(c)/200000-0.05) > 0.01 {
			t.Fatalf("uniform key %d count %d deviates", i, c)
		}
	}
}

func TestSequential(t *testing.T) {
	g := NewSequential(3)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("step %d: got %d want %d", i, got, w)
		}
	}
}

func TestLatestFavoursNewestKeys(t *testing.T) {
	g := NewLatest(100, 1.1, 7)
	counts := sample(g, 100000)
	if counts[99] <= counts[0] {
		t.Fatalf("latest should favour key n-1: counts[99]=%d counts[0]=%d", counts[99], counts[0])
	}
}

func TestKeyName(t *testing.T) {
	if KeyName(7) != "object-00007" {
		t.Fatalf("KeyName(7) = %q", KeyName(7))
	}
	if KeyName(0) == KeyName(1) {
		t.Fatal("key names must be distinct")
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	g := NewZipfian(300, 1.1, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

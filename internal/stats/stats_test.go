package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEWMAPaperExample(t *testing.T) {
	// §IV worked example: alpha=0.8, previous popularity 0, frequency 100
	// => popularity 80.
	e := NewEWMA(0.8)
	if got := e.Update(100); got != 80 {
		t.Fatalf("first update = %v, want 80", got)
	}
	// Second period with frequency 100 again: 0.8*100 + 0.2*80 = 96.
	if got := e.Update(100); got != 96 {
		t.Fatalf("second update = %v, want 96", got)
	}
	if e.Samples() != 2 {
		t.Fatalf("samples = %d", e.Samples())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 60; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMABoundsQuick(t *testing.T) {
	// EWMA of values in [0, 1000] stays in [0, 1000].
	f := func(vals []float64) bool {
		e := NewEWMA(0.8)
		for _, v := range vals {
			x := math.Mod(math.Abs(v), 1000)
			e.Update(x)
			if e.Value() < 0 || e.Value() > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWMAInvalidAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
	NewEWMA(1) // boundary is legal
}

func TestLatencySummary(t *testing.T) {
	s := NewLatencySummary(8)
	if s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary must report zeros")
	}
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != time.Duration(50.5*float64(time.Millisecond)) {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if s.Min() != time.Millisecond || s.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestLatencySummaryInterleavedAddAndQuery(t *testing.T) {
	s := NewLatencySummary(4)
	s.Add(3 * time.Millisecond)
	s.Add(1 * time.Millisecond)
	if s.Percentile(100) != 3*time.Millisecond {
		t.Fatal("max wrong before second add")
	}
	s.Add(5 * time.Millisecond) // must invalidate the sorted flag
	if s.Percentile(100) != 5*time.Millisecond {
		t.Fatal("summary did not re-sort after Add")
	}
}

func TestPercentileMonotonicQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewLatencySummary(len(raw))
		for _, r := range raw {
			s.Add(time.Duration(r) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package netsim

import (
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

func TestVirtualClock(t *testing.T) {
	start := time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)
	c := NewVirtualClock(start)
	if !c.Now().Equal(start) {
		t.Fatal("clock does not start at start")
	}
	c.Sleep(30 * time.Second)
	if got := c.Now().Sub(start); got != 30*time.Second {
		t.Fatalf("after sleep: %v", got)
	}
	c.Advance(time.Minute)
	if got := c.Now().Sub(start); got != 90*time.Second {
		t.Fatalf("after advance: %v", got)
	}
}

func TestVirtualClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	NewVirtualClock(time.Time{}).Advance(-time.Second)
}

func TestVirtualClockConcurrent(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				c.Advance(time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Now().Sub(time.Time{}); got != 800*time.Millisecond {
		t.Fatalf("concurrent advances lost: %v", got)
	}
}

func TestRealClock(t *testing.T) {
	var c RealClock
	before := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(before) {
		t.Fatal("real clock did not advance")
	}
}

func TestSamplerNoJitterIsExact(t *testing.T) {
	m := geo.DefaultMatrix()
	s := NewSampler(m, 0, 1)
	for _, from := range geo.DefaultRegions() {
		for _, to := range geo.DefaultRegions() {
			if got := s.Chunk(from, to); got != m.Get(from, to) {
				t.Fatalf("%v->%v: got %v want %v", from, to, got, m.Get(from, to))
			}
		}
	}
}

func TestSamplerJitterBounds(t *testing.T) {
	m := geo.DefaultMatrix()
	s := NewSampler(m, 0.1, 42)
	base := m.Get(geo.Frankfurt, geo.Tokyo)
	lo := time.Duration(float64(base) * 0.9)
	hi := time.Duration(float64(base) * 1.1)
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 1000; i++ {
		got := s.Chunk(geo.Frankfurt, geo.Tokyo)
		if got < lo || got > hi {
			t.Fatalf("sample %v outside [%v, %v]", got, lo, hi)
		}
		if prev >= 0 && got != prev {
			varied = true
		}
		prev = got
	}
	if !varied {
		t.Fatal("jittered sampler returned constant values")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	m := geo.DefaultMatrix()
	a := NewSampler(m, 0.05, 7)
	b := NewSampler(m, 0.05, 7)
	for i := 0; i < 100; i++ {
		if a.Chunk(geo.Sydney, geo.Dublin) != b.Chunk(geo.Sydney, geo.Dublin) {
			t.Fatal("same seed must reproduce samples")
		}
	}
}

func TestSamplerFixed(t *testing.T) {
	s := NewSampler(geo.DefaultMatrix(), 0, 1)
	if got := s.Fixed(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("Fixed = %v", got)
	}
	if got := s.Fixed(0); got != 0 {
		t.Fatalf("Fixed(0) = %v", got)
	}
}

func TestSamplerBadJitterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("jitter 1.0 did not panic")
		}
	}()
	NewSampler(geo.DefaultMatrix(), 1.0, 1)
}

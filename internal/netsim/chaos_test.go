package netsim

import (
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

var chaosEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestWindowContains(t *testing.T) {
	cases := []struct {
		name string
		w    Window
		off  time.Duration
		want bool
	}{
		{"before start", Window{Start: 10 * time.Second, End: 20 * time.Second}, 5 * time.Second, false},
		{"at start", Window{Start: 10 * time.Second, End: 20 * time.Second}, 10 * time.Second, true},
		{"inside", Window{Start: 10 * time.Second, End: 20 * time.Second}, 15 * time.Second, true},
		{"at end (half-open)", Window{Start: 10 * time.Second, End: 20 * time.Second}, 20 * time.Second, false},
		{"open-ended", Window{Start: 10 * time.Second}, time.Hour, true},
		{"zero window from zero", Window{}, 0, true},
	}
	for _, c := range cases {
		if got := c.w.Contains(c.off); got != c.want {
			t.Errorf("%s: Contains(%v) = %v, want %v", c.name, c.off, got, c.want)
		}
	}
}

func TestScheduleLatencyShift(t *testing.T) {
	s := NewSchedule(chaosEpoch)
	w := Window{Start: 10 * time.Second, End: 30 * time.Second}
	s.Shift(w, geo.Frankfurt, geo.Dublin, 3, 5*time.Millisecond)

	base := 100 * time.Millisecond
	// Before the window: base latency.
	if got := s.LatencyAt(chaosEpoch.Add(5*time.Second), geo.Frankfurt, geo.Dublin, base); got != base {
		t.Fatalf("before window: got %v, want %v", got, base)
	}
	// Inside the window: base*3 + 5ms.
	want := 305 * time.Millisecond
	if got := s.LatencyAt(chaosEpoch.Add(15*time.Second), geo.Frankfurt, geo.Dublin, base); got != want {
		t.Fatalf("inside window: got %v, want %v", got, want)
	}
	// After the window: base again.
	if got := s.LatencyAt(chaosEpoch.Add(31*time.Second), geo.Frankfurt, geo.Dublin, base); got != base {
		t.Fatalf("after window: got %v, want %v", got, base)
	}
	// A different link is untouched.
	if got := s.LatencyAt(chaosEpoch.Add(15*time.Second), geo.Dublin, geo.Frankfurt, base); got != base {
		t.Fatalf("reverse link shifted: got %v, want %v", got, base)
	}
	// Before the epoch nothing applies.
	if got := s.LatencyAt(chaosEpoch.Add(-time.Second), geo.Frankfurt, geo.Dublin, base); got != base {
		t.Fatalf("before epoch: got %v, want %v", got, base)
	}
}

func TestScheduleWildcardShift(t *testing.T) {
	s := NewSchedule(chaosEpoch)
	s.Shift(Window{End: time.Minute}, geo.Sydney, AnyRegion, 2, 0)
	at := chaosEpoch.Add(time.Second)
	for _, to := range geo.DefaultRegions() {
		if got := s.LatencyAt(at, geo.Sydney, to, 50*time.Millisecond); got != 100*time.Millisecond {
			t.Fatalf("sydney->%v: got %v, want 100ms", to, got)
		}
	}
	if got := s.LatencyAt(at, geo.Tokyo, geo.Sydney, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("tokyo->sydney shifted by a from-wildcard rule")
	}
}

func TestScheduleComposedShifts(t *testing.T) {
	s := NewSchedule(chaosEpoch)
	w := Window{End: time.Minute}
	s.Shift(w, geo.Frankfurt, geo.Dublin, 2, 0)
	s.Shift(w, geo.Frankfurt, geo.Dublin, 0, 7*time.Millisecond) // factor 0 => 1
	got := s.LatencyAt(chaosEpoch, geo.Frankfurt, geo.Dublin, 10*time.Millisecond)
	if want := 27 * time.Millisecond; got != want {
		t.Fatalf("composed shift: got %v, want %v", got, want)
	}
}

func TestScheduleCutAndRegionOutage(t *testing.T) {
	s := NewSchedule(chaosEpoch)
	w := Window{Start: time.Second, End: 10 * time.Second}
	s.Cut(w, geo.Frankfurt, geo.NVirginia)
	s.CutRegion(Window{Start: 20 * time.Second, End: 30 * time.Second}, geo.Tokyo)

	in := chaosEpoch.Add(5 * time.Second)
	if !s.CutAt(in, geo.Frankfurt, geo.NVirginia) || !s.CutAt(in, geo.NVirginia, geo.Frankfurt) {
		t.Fatalf("partition not symmetric")
	}
	if s.CutAt(in, geo.Frankfurt, geo.Dublin) {
		t.Fatalf("unrelated link cut")
	}
	if s.CutAt(chaosEpoch, geo.Frankfurt, geo.NVirginia) {
		t.Fatalf("cut active before window")
	}

	out := chaosEpoch.Add(25 * time.Second)
	if !s.CutAt(out, geo.Frankfurt, geo.Tokyo) || !s.CutAt(out, geo.Tokyo, geo.Sydney) {
		t.Fatalf("region outage should sever links both ways")
	}
	if s.CutAt(chaosEpoch.Add(31*time.Second), geo.Frankfurt, geo.Tokyo) {
		t.Fatalf("outage survived recovery")
	}
}

func TestSamplerChaosIntegration(t *testing.T) {
	clock := NewVirtualClock(chaosEpoch)
	sched := NewSchedule(chaosEpoch)
	sched.Shift(Window{Start: 10 * time.Second, End: 20 * time.Second}, geo.Frankfurt, geo.Dublin, 4, 0)
	sched.Cut(Window{Start: 10 * time.Second, End: 20 * time.Second}, geo.Frankfurt, geo.SaoPaulo)

	// Jitter 0 keeps sampling exact.
	s := NewSampler(geo.DefaultMatrix(), 0, 1)
	s.SetChaos(clock, sched)

	base := geo.DefaultMatrix().Get(geo.Frankfurt, geo.Dublin)
	if got := s.Chunk(geo.Frankfurt, geo.Dublin); got != base {
		t.Fatalf("pre-chaos chunk: got %v, want %v", got, base)
	}
	if s.Unreachable(geo.Frankfurt, geo.SaoPaulo) {
		t.Fatalf("link cut before window")
	}

	clock.Advance(15 * time.Second)
	if got, want := s.Chunk(geo.Frankfurt, geo.Dublin), 4*base; got != want {
		t.Fatalf("chaos chunk: got %v, want %v", got, want)
	}
	if !s.Unreachable(geo.Frankfurt, geo.SaoPaulo) {
		t.Fatalf("link not cut inside window")
	}
	if s.Unreachable(geo.Frankfurt, geo.Dublin) {
		t.Fatalf("shifted link reported as cut")
	}

	clock.Advance(10 * time.Second)
	if got := s.Chunk(geo.Frankfurt, geo.Dublin); got != base {
		t.Fatalf("post-chaos chunk: got %v, want %v", got, base)
	}
	if s.Unreachable(geo.Frankfurt, geo.SaoPaulo) {
		t.Fatalf("cut survived window end")
	}

	// Unbinding restores the plain sampler.
	s.SetChaos(nil, nil)
	if s.Unreachable(geo.Frankfurt, geo.SaoPaulo) {
		t.Fatalf("unbound sampler reports cuts")
	}
}

func TestScheduleEpochReanchor(t *testing.T) {
	s := NewSchedule(chaosEpoch)
	s.Shift(Window{End: 10 * time.Second}, AnyRegion, AnyRegion, 2, 0)
	later := chaosEpoch.Add(time.Hour)
	if got := s.LatencyAt(later, geo.Frankfurt, geo.Dublin, time.Millisecond); got != time.Millisecond {
		t.Fatalf("rule active an hour past its window")
	}
	s.SetEpoch(later)
	if got := s.LatencyAt(later, geo.Frankfurt, geo.Dublin, time.Millisecond); got != 2*time.Millisecond {
		t.Fatalf("re-anchored rule inactive: got %v", got)
	}
}

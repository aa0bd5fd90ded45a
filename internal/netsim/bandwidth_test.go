package netsim

import (
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// testMatrix builds a small symmetric matrix with a flat base latency.
func testMatrix(base time.Duration) *geo.LatencyMatrix {
	m := geo.NewLatencyMatrix(len(geo.DefaultRegions()))
	for _, a := range geo.DefaultRegions() {
		for _, b := range geo.DefaultRegions() {
			m.Set(a, b, base)
		}
	}
	return m
}

func TestChunkSizedUncappedEqualsChunk(t *testing.T) {
	// With jitter on, the sized and unsized samplers must draw the same
	// stream: no cap means ChunkSized is Chunk bit for bit.
	a := NewSampler(testMatrix(100*time.Millisecond), 0.05, 42)
	b := NewSampler(testMatrix(100*time.Millisecond), 0.05, 42)
	for i := 0; i < 50; i++ {
		la := a.Chunk(geo.Frankfurt, geo.Tokyo)
		lb := b.ChunkSized(geo.Frankfurt, geo.Tokyo, 1<<20)
		if la != lb {
			t.Fatalf("draw %d: Chunk %v != uncapped ChunkSized %v", i, la, lb)
		}
	}
}

func TestBandwidthCapAddsTransferTime(t *testing.T) {
	s := NewSampler(testMatrix(100*time.Millisecond), 0, 1)
	s.CapBandwidth(geo.Frankfurt, geo.Tokyo, 1<<20) // 1 MiB/s

	// A 512 KiB chunk over 1 MiB/s adds 500 ms of transfer.
	got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 512<<10)
	want := 100*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Fatalf("capped transfer = %v, want %v", got, want)
	}
	// Size-dependent: half the bytes, half the transfer.
	if got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 256<<10); got != 100*time.Millisecond+250*time.Millisecond {
		t.Fatalf("half-size transfer = %v", got)
	}
	// Other links stay uncapped.
	if got := s.ChunkSized(geo.Frankfurt, geo.Dublin, 512<<10); got != 100*time.Millisecond {
		t.Fatalf("uncapped link = %v", got)
	}
	// Zero-size transfers cost only the base latency.
	if got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 0); got != 100*time.Millisecond {
		t.Fatalf("zero-size = %v", got)
	}
}

func TestBandwidthWildcardAndTightestCap(t *testing.T) {
	s := NewSampler(testMatrix(10*time.Millisecond), 0, 1)
	s.CapBandwidth(geo.Frankfurt, AnyRegion, 4<<20)
	if got := s.Bandwidth(geo.Frankfurt, geo.Sydney); got != 4<<20 {
		t.Fatalf("wildcard cap = %d", got)
	}
	if got := s.Bandwidth(geo.Dublin, geo.Sydney); got != 0 {
		t.Fatalf("unmatched link capped at %d", got)
	}
	// A tighter link-specific cap wins over the wildcard.
	s.CapBandwidth(geo.Frankfurt, geo.Sydney, 1<<20)
	if got := s.Bandwidth(geo.Frankfurt, geo.Sydney); got != 1<<20 {
		t.Fatalf("tightest cap = %d", got)
	}
	// A looser one does not.
	s.CapBandwidth(AnyRegion, AnyRegion, 8<<20)
	if got := s.Bandwidth(geo.Frankfurt, geo.Sydney); got != 1<<20 {
		t.Fatalf("loose cap overrode: %d", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("nonpositive cap accepted")
		}
	}()
	s.CapBandwidth(geo.Frankfurt, geo.Dublin, 0)
}

func TestFlipDeterministicAndGuarded(t *testing.T) {
	a := NewSampler(testMatrix(time.Millisecond), 0, 9)
	b := NewSampler(testMatrix(time.Millisecond), 0, 9)
	hits := 0
	for i := 0; i < 1000; i++ {
		fa, fb := a.Flip(0.3), b.Flip(0.3)
		if fa != fb {
			t.Fatalf("draw %d: seeds diverge", i)
		}
		if fa {
			hits++
		}
	}
	if hits < 200 || hits > 400 {
		t.Fatalf("p=0.3 hit %d of 1000", hits)
	}

	// p<=0 must not advance the stream: interleaving no-op flips leaves the
	// jitter draws unchanged.
	c := NewSampler(testMatrix(100*time.Millisecond), 0.05, 7)
	d := NewSampler(testMatrix(100*time.Millisecond), 0.05, 7)
	for i := 0; i < 20; i++ {
		c.Flip(0)
		c.Flip(-1)
		if lc, ld := c.Chunk(geo.Frankfurt, geo.Tokyo), d.Chunk(geo.Frankfurt, geo.Tokyo); lc != ld {
			t.Fatalf("draw %d: guarded Flip advanced the stream (%v vs %v)", i, lc, ld)
		}
		if c.Flip(1) != true {
			t.Fatal("p=1 flip returned false")
		}
		d.Flip(1)
	}
}

// TestScheduleBandwidthCapRule covers the time-varying cap form: a cap
// rule applies only inside its window, composes tightest-wins with static
// sampler caps, honours wildcards, and a nonpositive rate panics.
func TestScheduleBandwidthCapRule(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := NewVirtualClock(epoch)
	sched := NewSchedule(epoch)
	sched.CapBandwidth(Window{Start: 10 * time.Second, End: 20 * time.Second}, AnyRegion, AnyRegion, 1<<20)

	s := NewSampler(testMatrix(100*time.Millisecond), 0, 1)
	s.SetChaos(clock, sched)

	// Before the window: uncapped, sized transfer costs only base latency.
	if got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 512<<10); got != 100*time.Millisecond {
		t.Fatalf("pre-window transfer = %v", got)
	}
	// Inside the window: 512 KiB over 1 MiB/s adds 500 ms.
	clock.Advance(15 * time.Second)
	if got := s.Bandwidth(geo.Frankfurt, geo.Tokyo); got != 1<<20 {
		t.Fatalf("in-window bandwidth = %d", got)
	}
	if got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 512<<10); got != 600*time.Millisecond {
		t.Fatalf("in-window transfer = %v", got)
	}
	// After the window closes: uncapped again — the brownout recovered.
	clock.Advance(10 * time.Second)
	if got := s.ChunkSized(geo.Frankfurt, geo.Tokyo, 512<<10); got != 100*time.Millisecond {
		t.Fatalf("post-window transfer = %v", got)
	}

	// Directional matching: a from-specific rule leaves other sources alone.
	sched.CapBandwidth(Window{Start: 25 * time.Second}, geo.Dublin, AnyRegion, 2<<20)
	if got := s.Bandwidth(geo.Dublin, geo.Tokyo); got != 2<<20 {
		t.Fatalf("directional cap = %d", got)
	}
	if got := s.Bandwidth(geo.Frankfurt, geo.Tokyo); got != 0 {
		t.Fatalf("unmatched source capped at %d", got)
	}

	// Tightest-wins against a static sampler cap, whichever is smaller.
	s.CapBandwidth(geo.Dublin, geo.Tokyo, 1<<20)
	if got := s.Bandwidth(geo.Dublin, geo.Tokyo); got != 1<<20 {
		t.Fatalf("static tighter cap = %d", got)
	}
	sched.CapBandwidth(Window{Start: 25 * time.Second}, geo.Dublin, geo.Tokyo, 512<<10)
	if got := s.Bandwidth(geo.Dublin, geo.Tokyo); got != 512<<10 {
		t.Fatalf("schedule tighter cap = %d", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("nonpositive schedule cap accepted")
		}
	}()
	sched.CapBandwidth(Window{}, AnyRegion, AnyRegion, 0)
}

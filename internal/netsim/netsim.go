// Package netsim provides the time and delay substrate for running Agar
// either under simulation or against real sockets.
//
// The experiment harness replays the paper's wide-area deployment on a
// virtual clock: chunk-read latencies are drawn from the geo latency matrix
// with deterministic jitter and composed (a parallel fetch costs the maximum
// of its chunk latencies), and the clock advances by the composed latency
// instead of sleeping. The live TCP mode uses the same samplers but sleeps
// for real, optionally scaled down.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// Clock abstracts time so experiments can run on virtual time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks (or advances virtual time) for d.
	Sleep(d time.Duration)
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a logical clock that advances only when Sleep or Advance
// is called. It is safe for concurrent use, but note that concurrent
// sleepers serialise: each Sleep advances the clock by its full duration.
// The experiment harness drives a single logical timeline, which is exactly
// the semantics it needs.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock starting at the given instant.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock by advancing the clock.
func (c *VirtualClock) Sleep(d time.Duration) { c.Advance(d) }

// Advance moves the clock forward by d (negative d panics).
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: cannot advance clock by %v", d))
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Sampler draws concrete chunk-read latencies from a latency matrix with
// deterministic multiplicative jitter, modelling run-to-run WAN variance.
// It is safe for concurrent use.
type Sampler struct {
	mu     sync.Mutex
	matrix *geo.LatencyMatrix
	jitter float64 // fraction, e.g. 0.05 for +-5%
	rng    *rand.Rand

	// Chaos overlay: when bound, chunk latencies pass through the
	// schedule's active shifts at the clock's current instant, and cut
	// links report as unreachable.
	clock    Clock
	schedule *Schedule

	// Bandwidth caps: per-link bytes/second ceilings that make large chunk
	// transfers see size-dependent latency through ChunkSized.
	caps []linkCap
}

// linkCap caps one link's (or, with AnyRegion wildcards, a set of links')
// transfer rate.
type linkCap struct {
	from, to geo.RegionID
	bps      int64
}

func (c linkCap) matches(from, to geo.RegionID) bool {
	if c.from != AnyRegion && c.from != from {
		return false
	}
	if c.to != AnyRegion && c.to != to {
		return false
	}
	return true
}

// NewSampler returns a sampler over the matrix with the given jitter
// fraction and seed. Jitter must lie in [0, 1).
func NewSampler(m *geo.LatencyMatrix, jitter float64, seed int64) *Sampler {
	if jitter < 0 || jitter >= 1 {
		panic(fmt.Sprintf("netsim: jitter %v out of [0,1)", jitter))
	}
	return &Sampler{matrix: m, jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// SetChaos binds the sampler to a chaos schedule evaluated on the given
// clock. Subsequent Chunk calls apply the schedule's active latency shifts
// and Unreachable consults its cuts. A nil schedule unbinds.
func (s *Sampler) SetChaos(clock Clock, schedule *Schedule) {
	s.mu.Lock()
	s.clock = clock
	s.schedule = schedule
	s.mu.Unlock()
}

// chaos returns the bound clock and schedule, or ok=false when unbound.
func (s *Sampler) chaos() (Clock, *Schedule, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.schedule == nil || s.clock == nil {
		return nil, nil, false
	}
	return s.clock, s.schedule, true
}

// Chunk returns a jittered chunk-read latency for a client in `from`
// reading a chunk stored in `to`, after applying any active chaos shifts.
func (s *Sampler) Chunk(from, to geo.RegionID) time.Duration {
	base := s.matrix.Get(from, to)
	if clock, sched, ok := s.chaos(); ok {
		base = sched.LatencyAt(clock.Now(), from, to, base)
	}
	return s.perturb(base)
}

// CapBandwidth installs a bytes/second ceiling on the (from, to) link;
// AnyRegion on either side matches every region. Overlapping caps compose
// by taking the tightest. A nonpositive rate panics — an uncapped link is
// expressed by installing no cap.
func (s *Sampler) CapBandwidth(from, to geo.RegionID, bps int64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth cap %d must be positive", bps))
	}
	s.mu.Lock()
	s.caps = append(s.caps, linkCap{from: from, to: to, bps: bps})
	s.mu.Unlock()
}

// Bandwidth returns the tightest cap matching the link — static sampler
// caps composed with any bandwidth-cap rules active on the bound chaos
// schedule at the clock's current instant — or 0 if uncapped.
func (s *Sampler) Bandwidth(from, to geo.RegionID) int64 {
	s.mu.Lock()
	var best int64
	for _, c := range s.caps {
		if c.matches(from, to) && (best == 0 || c.bps < best) {
			best = c.bps
		}
	}
	clock, sched := s.clock, s.schedule
	s.mu.Unlock()
	if clock != nil && sched != nil {
		if bps := sched.BandwidthAt(clock.Now(), from, to); bps > 0 && (best == 0 || bps < best) {
			best = bps
		}
	}
	return best
}

// ChunkSized returns the chunk-read latency for a transfer of the given
// size: the jittered Chunk latency plus the deterministic transfer time the
// link's bandwidth cap implies. With no cap installed it equals Chunk
// exactly — same value, same jitter draw — so unsized callers and sized
// callers on uncapped links agree bit for bit.
func (s *Sampler) ChunkSized(from, to geo.RegionID, bytes int) time.Duration {
	lat := s.Chunk(from, to)
	if bytes <= 0 {
		return lat
	}
	if bps := s.Bandwidth(from, to); bps > 0 {
		lat += time.Duration(float64(bytes) / float64(bps) * float64(time.Second))
	}
	return lat
}

// Flip draws a deterministic Bernoulli sample: true with probability p.
// Nonpositive p never draws from (or advances) the jitter stream, so
// callers guarding on p == 0 keep bit-exact replay compatibility.
func (s *Sampler) Flip(p float64) bool {
	if p <= 0 {
		return false
	}
	s.mu.Lock()
	u := s.rng.Float64()
	s.mu.Unlock()
	return u < p
}

// Unreachable reports whether the (from, to) link is currently severed by
// the bound chaos schedule. An unbound sampler never reports cuts.
func (s *Sampler) Unreachable(from, to geo.RegionID) bool {
	clock, sched, ok := s.chaos()
	if !ok {
		return false
	}
	return sched.CutAt(clock.Now(), from, to)
}

// Fixed returns a jittered sample around an arbitrary base duration (used
// for cache access and decode costs).
func (s *Sampler) Fixed(base time.Duration) time.Duration {
	return s.perturb(base)
}

func (s *Sampler) perturb(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if s.jitter == 0 {
		return base
	}
	s.mu.Lock()
	u := s.rng.Float64()
	s.mu.Unlock()
	f := 1 + s.jitter*(2*u-1)
	return time.Duration(float64(base) * f)
}

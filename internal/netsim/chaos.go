package netsim

import (
	"fmt"
	"sync"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// AnyRegion is the wildcard region matcher for schedule rules: a rule with
// From == AnyRegion applies to every source region, and likewise for To.
const AnyRegion geo.RegionID = -1

// Window is a half-open interval [Start, End) of offsets from the
// schedule's epoch. A zero End means the window never closes.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Contains reports whether the offset falls inside the window.
func (w Window) Contains(off time.Duration) bool {
	if off < w.Start {
		return false
	}
	return w.End == 0 || off < w.End
}

// RuleKind distinguishes schedule rules.
type RuleKind int

// Rule kinds.
const (
	// RuleShift rescales the latency of matching links while active:
	// latency = base*Factor + Add.
	RuleShift RuleKind = iota + 1
	// RuleCut severs matching links while active: reads over them fail as
	// if the remote region were unreachable.
	RuleCut
	// RuleBandwidthCap caps matching links' transfer rate to BPS
	// bytes/second while active: sized transfers (Sampler.ChunkSized) pay
	// bytes/BPS of extra latency — the brownout half of a chaos timeline,
	// where a storage tier's effective throughput sags for a window and
	// recovers. Overlapping active caps (and any static sampler caps)
	// compose by taking the tightest.
	RuleBandwidthCap
)

// Rule is one chaos event on the network: a latency shift, a link cut, or
// a bandwidth cap, active during a window, matching a (from, to) link
// pair. AnyRegion acts as a wildcard on either side. Rules are
// directional; use the Schedule helpers to install symmetric pairs.
type Rule struct {
	Window Window
	Kind   RuleKind
	From   geo.RegionID
	To     geo.RegionID
	// Factor multiplies the base latency (RuleShift). Zero means 1.
	Factor float64
	// Add is added after scaling (RuleShift).
	Add time.Duration
	// BPS is the bytes/second ceiling (RuleBandwidthCap).
	BPS int64
}

func (r Rule) matches(from, to geo.RegionID) bool {
	if r.From != AnyRegion && r.From != from {
		return false
	}
	if r.To != AnyRegion && r.To != to {
		return false
	}
	return true
}

// Schedule is a time-varying overlay on a latency matrix: an ordered set of
// chaos rules anchored at an epoch. It answers two questions for any
// instant and link: what is the effective latency, and is the link cut?
// The zero value is unusable; construct with NewSchedule. A Schedule is
// safe for concurrent use once rules stop being added (the runner installs
// all rules up front); rule installation and epoch changes are also
// guarded for convenience.
type Schedule struct {
	mu    sync.RWMutex
	epoch time.Time
	rules []Rule
}

// NewSchedule returns an empty schedule anchored at epoch.
func NewSchedule(epoch time.Time) *Schedule {
	return &Schedule{epoch: epoch}
}

// SetEpoch re-anchors the schedule (the scenario runner sets the epoch to
// the virtual instant measurement starts, after warm-up).
func (s *Schedule) SetEpoch(epoch time.Time) {
	s.mu.Lock()
	s.epoch = epoch
	s.mu.Unlock()
}

// Add installs a raw rule.
func (s *Schedule) Add(r Rule) {
	if r.Kind == RuleShift && r.Factor < 0 {
		panic(fmt.Sprintf("netsim: negative shift factor %v", r.Factor))
	}
	if r.Kind == RuleBandwidthCap && r.BPS <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth cap rule needs a positive rate, got %d", r.BPS))
	}
	s.mu.Lock()
	s.rules = append(s.rules, r)
	s.mu.Unlock()
}

// Shift installs a directional latency shift on the (from, to) link.
func (s *Schedule) Shift(w Window, from, to geo.RegionID, factor float64, add time.Duration) {
	s.Add(Rule{Window: w, Kind: RuleShift, From: from, To: to, Factor: factor, Add: add})
}

// Cut severs the (from, to) link and its reverse for the window.
func (s *Schedule) Cut(w Window, from, to geo.RegionID) {
	s.Add(Rule{Window: w, Kind: RuleCut, From: from, To: to})
	s.Add(Rule{Window: w, Kind: RuleCut, From: to, To: from})
}

// CutRegion isolates a region for the window: every link into and out of
// it is severed — the schedule-level model of a region outage.
func (s *Schedule) CutRegion(w Window, region geo.RegionID) {
	s.Add(Rule{Window: w, Kind: RuleCut, From: AnyRegion, To: region})
	s.Add(Rule{Window: w, Kind: RuleCut, From: region, To: AnyRegion})
}

// CapBandwidth caps the directional (from, to) link to bps bytes/second
// for the window — the time-varying counterpart of Sampler.CapBandwidth.
func (s *Schedule) CapBandwidth(w Window, from, to geo.RegionID, bps int64) {
	s.Add(Rule{Window: w, Kind: RuleBandwidthCap, From: from, To: to, BPS: bps})
}

// active returns whether the rule applies at offset off for the link.
func (s *Schedule) offsetOf(t time.Time) (time.Duration, bool) {
	if t.Before(s.epoch) {
		return 0, false
	}
	return t.Sub(s.epoch), true
}

// LatencyAt returns the effective latency of the (from, to) link at
// instant t given its base latency. Multiple active shifts compose in
// installation order.
func (s *Schedule) LatencyAt(t time.Time, from, to geo.RegionID, base time.Duration) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	off, ok := s.offsetOf(t)
	if !ok {
		return base
	}
	lat := base
	for _, r := range s.rules {
		if r.Kind != RuleShift || !r.Window.Contains(off) || !r.matches(from, to) {
			continue
		}
		f := r.Factor
		if f == 0 {
			f = 1
		}
		lat = time.Duration(float64(lat)*f) + r.Add
	}
	return lat
}

// BandwidthAt returns the tightest bandwidth cap active on the (from, to)
// link at instant t, or 0 when no cap rule is active — the same "0 means
// uncapped" convention as Sampler.Bandwidth.
func (s *Schedule) BandwidthAt(t time.Time, from, to geo.RegionID) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	off, ok := s.offsetOf(t)
	if !ok {
		return 0
	}
	var best int64
	for _, r := range s.rules {
		if r.Kind != RuleBandwidthCap || !r.Window.Contains(off) || !r.matches(from, to) {
			continue
		}
		if best == 0 || r.BPS < best {
			best = r.BPS
		}
	}
	return best
}

// CutAt reports whether the (from, to) link is severed at instant t.
func (s *Schedule) CutAt(t time.Time, from, to geo.RegionID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	off, ok := s.offsetOf(t)
	if !ok {
		return false
	}
	for _, r := range s.rules {
		if r.Kind == RuleCut && r.Window.Contains(off) && r.matches(from, to) {
			return true
		}
	}
	return false
}

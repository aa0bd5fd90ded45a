package coop

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Table holds a node's mirrors of every peer it hears digests from, plus
// the peer-read counters its cache server reports. A cache server owns one
// Table: incoming OpDigest frames apply here, and its /metrics families
// read the table's counters.
type Table struct {
	mu      sync.Mutex
	mirrors map[string]*Mirror
	now     func() time.Time // nil => each mirror's default (time.Now)

	peerHits   atomic.Int64
	peerMisses atomic.Int64
	digests    atomic.Int64
	deltas     atomic.Int64
	stale      atomic.Int64
}

// NewTable returns an empty mirror table.
func NewTable() *Table {
	return &Table{mirrors: make(map[string]*Mirror)}
}

// Mirror returns the mirror for a peer region, creating it empty on first
// use so wiring code can hand it out before any digest arrives.
func (t *Table) Mirror(region string) *Mirror {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.mirrors[region]
	if m == nil {
		m = NewMirror(region)
		m.SetClock(t.now)
		t.mirrors[region] = m
	}
	return m
}

// SetClock replaces the clock every mirror — existing and future — measures
// digest ages against (default time.Now). Simulated deployments inject
// their virtual clock so digest_age_ms stays deterministic.
func (t *Table) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	for _, m := range t.mirrors {
		m.SetClock(now)
	}
}

// Regions lists the peer regions the table tracks, sorted.
func (t *Table) Regions() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.mirrors))
	for r := range t.mirrors {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Apply routes one digest frame — full or delta — to its region's mirror
// and reports whether it was applied (false means it was stale, or a delta
// whose base the mirror has moved past).
func (t *Table) Apply(d Digest) bool {
	m := t.Mirror(d.Region)
	var ok bool
	if d.Delta {
		ok = m.ApplyDelta(d.Seq, d.Base, d.Groups)
		if ok {
			t.deltas.Add(1)
		}
	} else {
		ok = m.Apply(d.Seq, d.Groups)
	}
	if ok {
		t.digests.Add(1)
	} else {
		t.stale.Add(1)
	}
	return ok
}

// RecordPeerRead accounts one batched read from a remote peer's client:
// hits chunks were served, misses were advertised-but-gone (or never
// advertised) chunks the peer will now re-fetch over the WAN.
func (t *Table) RecordPeerRead(hits, misses int) {
	t.peerHits.Add(int64(hits))
	t.peerMisses.Add(int64(misses))
}

// PeerReads returns the cumulative peer-read hit and miss chunk counts.
func (t *Table) PeerReads() (hits, misses int64) {
	return t.peerHits.Load(), t.peerMisses.Load()
}

// Applied returns how many digest frames were applied and how many were
// dropped as stale.
func (t *Table) Applied() (applied, stale int64) {
	return t.digests.Load(), t.stale.Load()
}

// Deltas returns how many of the applied frames were digest deltas.
func (t *Table) Deltas() int64 { return t.deltas.Load() }

// StalestAge returns the age of the least recently refreshed mirror, and
// false when no mirror has ever received a digest.
func (t *Table) StalestAge() (time.Duration, bool) {
	t.mu.Lock()
	mirrors := make([]*Mirror, 0, len(t.mirrors))
	for _, m := range t.mirrors {
		mirrors = append(mirrors, m)
	}
	t.mu.Unlock()
	var worst time.Duration
	found := false
	for _, m := range mirrors {
		if age, ok := m.Age(); ok {
			if !found || age > worst {
				worst = age
			}
			found = true
		}
	}
	return worst, found
}

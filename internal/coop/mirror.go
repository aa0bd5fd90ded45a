package coop

import (
	"sort"
	"sync"
	"time"

	"github.com/agardist/agar/internal/cache"
)

// Mirror is a node's view of one peer cache's residency, maintained from
// the peer's digest frames. It satisfies core.ChunkResidency, so the cache
// manager values peer-covered chunks in its knapsack exactly as it values
// a local simulated peer cache — and it is advisory: the peer may have
// evicted a chunk since the last digest, so readers must treat a mirror
// hit as a hint, never a guarantee.
type Mirror struct {
	mu      sync.Mutex
	region  string
	seq     int64
	groups  map[string]map[int]bool
	updated time.Time
	applied int64

	// now is the clock, injectable for staleness tests.
	now func() time.Time
}

// NewMirror returns an empty mirror for the named peer region.
func NewMirror(region string) *Mirror {
	return &Mirror{
		region: region,
		groups: make(map[string]map[int]bool),
		now:    time.Now,
	}
}

// SetClock replaces the clock Age measures against (default time.Now).
// Simulated deployments inject their virtual clock here so digest ages —
// and the digest_age_ms stat derived from them — advance with simulated
// time and stay deterministic across runs.
func (m *Mirror) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now != nil {
		m.now = now
	}
}

// Apply folds one digest frame in. A frame with a higher sequence
// replaces the whole view (the first page of a new snapshot); frames
// sharing the current sequence merge (later pages); lower sequences are
// rejected as stale. It reports whether the frame was applied.
func (m *Mirror) Apply(seq int64, groups map[string][]int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case seq > m.seq || m.applied == 0:
		m.seq = seq
		m.groups = make(map[string]map[int]bool, len(groups))
	case seq < m.seq:
		return false
	}
	for key, idxs := range groups {
		set := m.groups[key]
		if set == nil {
			set = make(map[int]bool, len(idxs))
			m.groups[key] = set
		}
		for _, idx := range idxs {
			set[idx] = true
		}
	}
	m.updated = m.now()
	m.applied++
	return true
}

// ApplyDelta folds one delta frame in: groups list only changed keys, an
// empty index list deleting the key. The delta applies only when the
// mirror sits exactly at base (advancing it to seq) or is already at seq
// (a later page of the same delta snapshot); any other state — including a
// mirror that never received a full digest — rejects the frame, and the
// advertiser's ack check falls it back to a full digest. It reports whether
// the frame was applied.
func (m *Mirror) ApplyDelta(seq, base int64, groups map[string][]int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.applied == 0:
		return false // nothing to delta against
	case m.seq == seq:
		// later page of this delta snapshot: merge below
	case m.seq == base && seq > base:
		m.seq = seq
	default:
		return false
	}
	for key, idxs := range groups {
		if len(idxs) == 0 {
			delete(m.groups, key)
			continue
		}
		set := make(map[int]bool, len(idxs))
		for _, idx := range idxs {
			set[idx] = true
		}
		m.groups[key] = set
	}
	m.updated = m.now()
	m.applied++
	return true
}

// IndicesOf returns the peer's advertised resident chunk indices for a
// key, sorted. It implements core.ChunkResidency.
func (m *Mirror) IndicesOf(key string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.groups[key]
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for idx := range set {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Contains reports whether the last digest advertised the chunk as
// resident. It implements core.ChunkResidency.
func (m *Mirror) Contains(id cache.EntryID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[id.Key][id.Index]
}

// Seq returns the sequence of the last applied snapshot.
func (m *Mirror) Seq() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Age returns how long ago the last digest frame was applied, and false if
// none ever was.
func (m *Mirror) Age() (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.applied == 0 {
		return 0, false
	}
	return m.now().Sub(m.updated), true
}

// Keys returns how many objects the mirror currently advertises.
func (m *Mirror) Keys() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.groups)
}

package core

import (
	"sort"
	"sync"

	"github.com/agardist/agar/internal/stats"
)

// DefaultAlpha is the EWMA weighting coefficient the paper uses (§IV).
const DefaultAlpha = 0.8

// popularityFloor is the EWMA value below which a key's statistics are
// dropped entirely; with alpha 0.8 an unaccessed key decays under the floor
// within a few periods.
const popularityFloor = 1e-3

// PopularitySource is what the cache manager needs from a request monitor:
// per-request recording and a per-period popularity snapshot. Monitor is
// the implementation; tests substitute fakes.
type PopularitySource interface {
	// Record notes one client request for the object.
	Record(key string)
	// EndPeriod closes the running period and returns the popularity
	// snapshot to configure the cache from.
	EndPeriod() map[string]float64
}

// Monitor is Agar's request monitor (§III-b): it listens to client
// requests, counts per-object access frequency over the current period, and
// folds each period's frequencies into an exponentially weighted moving
// average of popularity. It is safe for concurrent use.
type Monitor struct {
	mu    sync.Mutex
	alpha float64
	freq  map[string]int64
	pop   map[string]*stats.EWMA
	reqs  int64
}

// NewMonitor returns a monitor with the given EWMA coefficient.
func NewMonitor(alpha float64) *Monitor {
	return &Monitor{
		alpha: alpha,
		freq:  make(map[string]int64),
		pop:   make(map[string]*stats.EWMA),
	}
}

// Record notes one client request for the object.
func (m *Monitor) Record(key string) {
	m.mu.Lock()
	m.freq[key]++
	m.reqs++
	m.mu.Unlock()
}

// Requests returns the total number of requests recorded since creation.
func (m *Monitor) Requests() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reqs
}

// CurrentFrequency returns the access count for the key in the running
// period.
func (m *Monitor) CurrentFrequency(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freq[key]
}

// EndPeriod closes the running period: every tracked key's frequency
// (including zero for keys seen in earlier periods) is folded into its
// EWMA, frequencies reset, and the new popularity snapshot is returned.
// Keys whose popularity decays to a negligible level are forgotten.
func (m *Monitor) EndPeriod() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Make sure keys seen this period have an EWMA slot.
	for key := range m.freq {
		if m.pop[key] == nil {
			m.pop[key] = stats.NewEWMA(m.alpha)
		}
	}
	out := make(map[string]float64, len(m.pop))
	for key, e := range m.pop {
		v := e.Update(float64(m.freq[key]))
		if v < popularityFloor {
			delete(m.pop, key)
			continue
		}
		out[key] = v
	}
	m.freq = make(map[string]int64)
	return out
}

// Popularity returns the current EWMA popularity snapshot without closing
// the period.
func (m *Monitor) Popularity() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.pop))
	for key, e := range m.pop {
		out[key] = e.Value()
	}
	return out
}

// TopKeys returns up to n keys by current popularity, most popular first,
// with deterministic tie-breaking.
func (m *Monitor) TopKeys(n int) []string {
	pop := m.Popularity()
	keys := make([]string, 0, len(pop))
	for k := range pop {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if pop[keys[i]] != pop[keys[j]] {
			return pop[keys[i]] > pop[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}

// Package core implements the paper's primary contribution: Agar's
// cache-configuration machinery.
//
// It contains the caching-option generator (§IV-A), the POPULATE/RELAX
// dynamic program that chooses cache contents (§IV-B, Figures 4 and 5) on
// the simulated plane, the exact multiple-choice-knapsack solver live
// deployments run in its place, the greedy heuristic the paper argues
// against (§II-D), the EWMA-based request monitor, the
// latency-probing region manager, and the cache manager that periodically
// recomputes and applies the configuration (§III).
package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// Option is one caching option (§IV-A): a hypothetical configuration entry
// that captures the implications of caching a specific chunk set for one
// object.
type Option struct {
	// Key identifies the object.
	Key string
	// Chunks is the set of chunk indices to cache.
	Chunks []int
	// Weight is the cache space the option occupies, in chunk slots
	// (len(Chunks)).
	Weight int
	// Value is the overall latency improvement caching the set brings,
	// computed as popularity x latency improvement, in popularity-weighted
	// milliseconds.
	Value float64
}

// String renders the option compactly for debugging.
func (o Option) String() string {
	return fmt.Sprintf("{%s w=%d v=%.1f chunks=%v}", o.Key, o.Weight, o.Value, o.Chunks)
}

// DefaultWeightGrid returns the full weight grid 1..k. The paper's worked
// example enumerates the sparser grid {1, 3, 5, 7, 9}, available through
// PaperWeightGrid.
func DefaultWeightGrid(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// PaperWeightGrid returns the odd weights {1, 3, ..., k} used by the paper's
// §IV-A example and by the evaluation's fixed-c baselines.
func PaperWeightGrid(k int) []int {
	var out []int
	for w := 1; w <= k; w += 2 {
		out = append(out, w)
	}
	if len(out) == 0 || out[len(out)-1] != k {
		out = append(out, k)
	}
	return out
}

// GenerateOptions builds the caching options for one object (§IV-A).
//
// The fetch plan orders the object's chunks nearest-first as seen from the
// client region. The m furthest chunks are discarded (clients do not fetch
// them in the failure-free case), and each option caches the furthest
// retained chunks first. The value of a weight-w option is
//
//	popularity x (L(nothing cached) - L(option cached))
//
// where L is the latency of the furthest region still contacted; a fully
// cached object's residual latency is the local cache access time.
func GenerateOptions(key string, popularity float64, plan geo.FetchPlan, k int, grid []int, cacheLat time.Duration) []Option {
	if popularity < 0 {
		popularity = 0
	}
	retained := min(k, len(plan.Chunks))
	// Every option caches a prefix of the retained chunks taken
	// furthest-first, so all of a key's options share one backing array.
	furthest := make([]int, retained)
	for i, c := range plan.Chunks[:retained] {
		furthest[retained-1-i] = c
	}
	baseline := residualLatency(plan, retained, 0, cacheLat)
	out := make([]Option, 0, len(grid))
	for _, w := range grid {
		if w <= 0 {
			continue
		}
		if w > k {
			w = k
		}
		cached := min(w, retained)
		improvement := baseline - residualLatency(plan, retained, cached, cacheLat)
		if improvement < 0 {
			improvement = 0
		}
		out = append(out, Option{
			Key:    key,
			Chunks: furthest[:cached:cached],
			Weight: cached,
			// Value in popularity-weighted milliseconds; nanosecond counts
			// divide exactly for the latencies used here.
			Value: popularity * float64(improvement) / float64(time.Millisecond),
		})
		if w == k {
			break
		}
	}
	return out
}

// residualLatency is the latency the client still pays with the furthest
// `cached` of the plan's `retained` nearest chunks in the cache: the
// furthest remaining backend chunk, or the local cache access when
// everything needed is cached. Cache reads happen in parallel with backend
// reads, so the cache latency also floors the result.
func residualLatency(plan geo.FetchPlan, retained, cached int, cacheLat time.Duration) time.Duration {
	var rem time.Duration
	for _, lat := range plan.Latency[:retained-cached] {
		rem = max(rem, time.Duration(lat))
	}
	if cached > 0 && rem < cacheLat {
		rem = cacheLat
	}
	return rem
}

// OptionSet holds every object's options plus the key ordering POPULATE
// consumes (keys in decreasing value order, §IV Figure 4).
type OptionSet struct {
	// PerKey maps object key to its options sorted by increasing weight.
	PerKey map[string][]Option
	// Keys is sorted by decreasing best option value.
	Keys []string
}

// NewOptionSet assembles and orders an option set from per-key options.
// The caller's slices are copied, not kept.
func NewOptionSet(perKey map[string][]Option) *OptionSet {
	sorted := make(map[string][]Option, len(perKey))
	for key, opts := range perKey {
		cp := append([]Option(nil), opts...)
		sort.Slice(cp, func(i, j int) bool { return cp[i].Weight < cp[j].Weight })
		sorted[key] = cp
	}
	return orderOptionSet(sorted)
}

// orderOptionSet builds the set around perKey itself, whose slices must
// already be sorted by increasing weight, and orders the keys.
func orderOptionSet(perKey map[string][]Option) *OptionSet {
	type ranked struct {
		key  string
		best float64
	}
	keys := make([]ranked, 0, len(perKey))
	for key, opts := range perKey {
		r := ranked{key: key}
		for _, o := range opts {
			if o.Value > r.best {
				r.best = o.Value
			}
		}
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].best != keys[j].best {
			return keys[i].best > keys[j].best
		}
		return keys[i].key < keys[j].key // deterministic tie-break
	})
	s := &OptionSet{PerKey: perKey, Keys: make([]string, len(keys))}
	for i, r := range keys {
		s.Keys[i] = r.key
	}
	return s
}

// Search returns the option for the key with exactly the given weight.
// Weight 0 returns the empty option (total eviction), as RELAX requires.
func (s *OptionSet) Search(key string, weight int) (Option, bool) {
	if weight == 0 {
		return Option{Key: key}, true
	}
	for _, o := range s.PerKey[key] {
		if o.Weight == weight {
			return o, true
		}
	}
	return Option{}, false
}

// Ordered returns every option in POPULATE's iteration order: keys by
// decreasing value, options within a key by increasing weight.
func (s *OptionSet) Ordered() []Option {
	var out []Option
	for _, key := range s.Keys {
		out = append(out, s.PerKey[key]...)
	}
	return out
}

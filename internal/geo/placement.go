package geo

import (
	"fmt"
	"time"
)

// Placement maps the chunks of an object onto regions.
type Placement interface {
	// Locate returns, for each of the n chunks of the object identified by
	// key, the region that stores it. The returned slice has length n.
	Locate(key string, n int) []RegionID
}

// RoundRobin distributes chunks over the region list in order, wrapping
// around, so each region receives ⌈n/len(regions)⌉ or ⌊n/len(regions)⌋
// chunks. With Rotate set, the starting region is derived from the object
// key so aggregate load spreads evenly across regions; with Rotate unset the
// layout is identical for all objects, matching the paper's worked example
// (chunk 0 always lands on the first region).
type RoundRobin struct {
	Regions []RegionID
	Rotate  bool
}

// NewRoundRobin returns a round-robin placement over the given regions.
func NewRoundRobin(regions []RegionID, rotate bool) *RoundRobin {
	if len(regions) == 0 {
		panic("geo: round-robin placement needs at least one region")
	}
	cp := make([]RegionID, len(regions))
	copy(cp, regions)
	return &RoundRobin{Regions: cp, Rotate: rotate}
}

// Locate implements Placement.
func (p *RoundRobin) Locate(key string, n int) []RegionID {
	if n <= 0 {
		panic(fmt.Sprintf("geo: Locate with non-positive chunk count %d", n))
	}
	start := 0
	if p.Rotate {
		start = keyIndex(key) % len(p.Regions)
	}
	out := make([]RegionID, n)
	for i := 0; i < n; i++ {
		out[i] = p.Regions[(start+i)%len(p.Regions)]
	}
	return out
}

// ChunksIn returns the chunk indices of the object that live in the given
// region under this placement.
func ChunksIn(p Placement, key string, n int, region RegionID) []int {
	locs := p.Locate(key, n)
	var out []int
	for i, r := range locs {
		if r == region {
			out = append(out, i)
		}
	}
	return out
}

// FetchPlan describes, from a client region's point of view, the order in
// which an object's chunks should be fetched: nearest first. It is the
// basis for both the read path (fetch the nearest k) and Agar's caching
// options (cache the furthest retained chunks first).
type FetchPlan struct {
	// Chunks lists all chunk indices ordered from nearest to furthest
	// storage region, ties broken by chunk index.
	Chunks []int
	// Region[i] is the storage region of chunk Chunks[i].
	Region []RegionID
	// Latency[i] is the expected read latency of chunk Chunks[i] from the
	// client region.
	Latency []int64 // nanoseconds; int64 keeps the struct comparable in tests
}

// PlanFetch computes the nearest-first fetch plan for an object's chunks as
// seen from the client region.
func PlanFetch(m *LatencyMatrix, p Placement, key string, n int, client RegionID) FetchPlan {
	locs := p.Locate(key, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Stable sort by (latency, chunk index) for determinism.
	lat := make([]int64, n)
	for i, r := range locs {
		lat[i] = int64(m.Get(client, r))
	}
	sortByLatency(idx, lat)
	plan := FetchPlan{
		Chunks:  idx,
		Region:  make([]RegionID, n),
		Latency: make([]int64, n),
	}
	for i, c := range idx {
		plan.Region[i] = locs[c]
		plan.Latency[i] = lat[c]
	}
	return plan
}

func sortByLatency(idx []int, lat []int64) {
	// Insertion sort: n is k+m (12 for the paper deployment), and stability
	// plus zero allocation matter more than asymptotics here.
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 {
			a, b := idx[j-1], idx[j]
			if lat[a] < lat[b] || (lat[a] == lat[b] && a < b) {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
}

// Order returns the plan's chunk indices sorted by effective latency: a
// chunk's home-region latency, or its peer copy's latency when peer reports
// a cheaper one. Ties go by chunk index.
func (f FetchPlan) Order(peer func(idx int) (time.Duration, bool)) []int {
	order := append([]int(nil), f.Chunks...)
	lat := make([]int64, len(f.Chunks)) // by chunk index
	for i, idx := range f.Chunks {
		lat[idx] = f.Latency[i]
		if p, ok := peer(idx); ok && int64(p) < lat[idx] {
			lat[idx] = int64(p)
		}
	}
	sortByLatency(order, lat)
	return order
}

// Pick chooses up to k chunks to read, walking order nearest first: the
// preferred chunks (those a cache can serve) first, then the nearest others
// that usable accepts. A nil usable accepts every chunk.
func Pick(order []int, k int, preferred, usable func(idx int) bool) []int {
	out := make([]int, 0, k)
	for _, idx := range order {
		if len(out) < k && preferred(idx) {
			out = append(out, idx)
		}
	}
	return append(out, Next(order, k-len(out), func(idx int) bool {
		return preferred(idx) || (usable != nil && !usable(idx))
	})...)
}

// Next returns the first n chunks of order that skip does not reject: the
// substitutes a degraded read tries after n fetches failed.
func Next(order []int, n int, skip func(idx int) bool) []int {
	var out []int
	for _, idx := range order {
		if len(out) >= n {
			break
		}
		if !skip(idx) {
			out = append(out, idx)
		}
	}
	return out
}

// NearestK returns the chunk indices a client would fetch in the common
// case: the k nearest chunks (the m furthest are skipped, as §IV-A
// describes).
func (f FetchPlan) NearestK(k int) []int {
	if k > len(f.Chunks) {
		k = len(f.Chunks)
	}
	out := make([]int, k)
	copy(out, f.Chunks[:k])
	return out
}

// FurthestRetained returns the w chunk indices that Agar would cache for a
// weight-w option: after discarding the m furthest chunks, the furthest of
// the remaining k, furthest-first.
func (f FetchPlan) FurthestRetained(k, w int) []int {
	if w > k {
		w = k
	}
	retained := f.Chunks[:min(k, len(f.Chunks))]
	out := make([]int, 0, w)
	for i := len(retained) - 1; i >= 0 && len(out) < w; i-- {
		out = append(out, retained[i])
	}
	return out
}

// MaxLatencyExcluding returns the largest chunk latency among the nearest k
// chunks whose index is not in the exclude set. It returns 0 when every
// needed chunk is excluded (i.e. fully cached).
func (f FetchPlan) MaxLatencyExcluding(k int, exclude map[int]bool) int64 {
	var maxLat int64
	for i := 0; i < k && i < len(f.Chunks); i++ {
		if exclude[f.Chunks[i]] {
			continue
		}
		if f.Latency[i] > maxLat {
			maxLat = f.Latency[i]
		}
	}
	return maxLat
}

package client

import (
	"fmt"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

// FixedReader reads through a local chunk cache that keeps a fixed number c
// of chunks per object, under a classical eviction policy — the paper's
// LRU-c and LFU-c baselines (§V-A). On a miss it asynchronously populates
// the cache with the object's c most distant retained chunks, mirroring the
// motivating experiment of §II-C.
type FixedReader struct {
	env    *Env
	region geo.RegionID
	store  *cache.Cache
	c      int
	name   string
}

// NewFixedReader builds an LRU-c or LFU-c reader. The policy names the
// strategy: NewFixedReader(env, region, cache.NewLRU(), 3, bytes) is LRU-3.
// c must lie in [1, k].
func NewFixedReader(env *Env, region geo.RegionID, policy cache.Policy, c int, cacheBytes int64) *FixedReader {
	k := env.Cluster.Codec().K()
	if c < 1 || c > k {
		panic(fmt.Sprintf("client: c=%d outside [1, %d]", c, k))
	}
	return &FixedReader{
		env:    env,
		region: region,
		store:  cache.New(cacheBytes, policy),
		c:      c,
		name:   fmt.Sprintf("%s-%d", policy.Name(), c),
	}
}

// Name implements Reader.
func (r *FixedReader) Name() string { return r.name }

// WithName overrides the reported strategy name (the experiments layer
// labels the pinned-policy reader "fixed-c") and returns the reader.
func (r *FixedReader) WithName(name string) *FixedReader {
	r.name = name
	return r
}

// Cache exposes the reader's local cache (for inspection in tests and the
// experiment harness).
func (r *FixedReader) Cache() *cache.Cache { return r.store }

// Read implements Reader.
func (r *FixedReader) Read(key string) ([]byte, Result, error) {
	codec := r.env.Cluster.Codec()
	k := codec.K()
	plan := geo.PlanFetch(r.env.Matrix, r.env.Cluster.Placement(), key, codec.Total(), r.region)

	// What the cache policy would keep for this object: its c most distant
	// retained chunks.
	policySet := plan.FurthestRetained(k, r.c)

	// Probe the cache for all of them.
	cached := make([]fetchOutcome, 0, r.c)
	have := make(map[int]bool, r.c)
	for _, idx := range policySet {
		data, err := r.store.Get(cache.EntryID{Key: key, Index: idx})
		if err != nil {
			continue
		}
		cached = append(cached, fetchOutcome{index: idx, data: data})
		have[idx] = true
	}

	// Fetch the nearest chunks not already in hand until k total.
	want := geo.Next(plan.Chunks, k-len(cached), func(idx int) bool { return have[idx] })

	var res Result
	outcomes := cached
	if len(want) > 0 {
		fetched, lat, waves, err := fetchBackend(r.env, r.region, key, want, have, maxWaves(codec))
		if err != nil {
			return nil, Result{Latency: lat, Waves: waves}, err
		}
		outcomes = append(outcomes, fetched...)
		res.Latency = lat
		res.Waves = waves
		res.BackendChunks = len(fetched)
	}
	if len(cached) > 0 {
		// Cache reads run in parallel with backend reads; they only matter
		// when they dominate (full hit or slow cache).
		if cl := r.env.cacheLatency(); cl > res.Latency {
			res.Latency = cl
		}
	}
	res.CacheChunks = len(cached)
	res.FullHit = len(cached) >= k
	res.PartialHit = len(cached) > 0 && len(cached) < k

	data, decLat, err := decode(r.env, outcomes)
	if err != nil {
		return nil, res, err
	}
	res.Latency += decLat

	// Populate the cache off the read path with any policy-set chunks we
	// had to fetch from the backend (no latency charged).
	if len(cached) < len(policySet) {
		byIdx := make(map[int][]byte, len(outcomes))
		for _, o := range outcomes {
			byIdx[o.index] = o.data
		}
		for _, idx := range policySet {
			if have[idx] {
				continue
			}
			chunk, ok := byIdx[idx]
			if !ok {
				// The policy chunk was not part of this read's fetch set
				// (can happen under failures); fetch it silently.
				chunk, ok = offPathFetch(r.env, r.region, key, idx)
				if !ok {
					continue
				}
			}
			// Ignore insertion errors: an over-capacity single chunk simply
			// stays uncached.
			_ = r.store.Put(cache.EntryID{Key: key, Index: idx}, chunk)
		}
	}
	return data, res, nil
}

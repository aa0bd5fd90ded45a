package client

import (
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/geo"
)

// chunkGetter is the byte-access side of a peer cache, beyond the
// core.ChunkResidency view the knapsack accounting uses. Local simulated
// peer caches satisfy it; remote digest mirrors do not (live readers fetch
// peer bytes over the wire instead).
type chunkGetter interface {
	Get(id cache.EntryID) ([]byte, error)
}

// AgarReader reads through an Agar node (§III): every read first asks the
// node's request monitor for a hint, serves hinted chunks from the region's
// cache, fetches the remainder of the k nearest chunks from the backend,
// and populates hinted-but-missing chunks into the cache off the read path.
type AgarReader struct {
	env    *Env
	region geo.RegionID
	node   *core.Node
}

// NewAgarReader returns a reader bound to its region's Agar node.
func NewAgarReader(env *Env, region geo.RegionID, node *core.Node) *AgarReader {
	return &AgarReader{env: env, region: region, node: node}
}

// Name implements Reader.
func (r *AgarReader) Name() string { return "agar" }

// Node exposes the underlying Agar node.
func (r *AgarReader) Node() *core.Node { return r.node }

// Read implements Reader.
func (r *AgarReader) Read(key string) ([]byte, Result, error) {
	codec := r.env.Cluster.Codec()
	k := codec.K()

	// Ask the request monitor for the caching hint (records the access).
	hint := r.node.HandleRead(key)
	monLat := r.env.MonitorLatency
	if r.env.Sampler != nil {
		monLat = r.env.Sampler.Fixed(monLat)
	}

	// Every hinted chunk is read from the cache, even one Pick then drops:
	// the read is what updates the cache policy's state.
	store := r.node.Cache()
	inCache := make(map[int][]byte, len(hint.CacheChunks))
	missingHint := make([]int, 0, len(hint.CacheChunks))
	for _, idx := range hint.CacheChunks {
		data, err := store.Get(cache.EntryID{Key: key, Index: idx})
		if err != nil {
			missingHint = append(missingHint, idx)
			continue
		}
		inCache[idx] = data
	}

	// Take the k nearest cached chunks (a hint names the configured chunks
	// plus the resident ones, so it can list more than k), then the nearest
	// others until k total. Hinted chunks that missed the cache are fetched
	// from their home regions like any other chunk. Chunks resident in
	// cooperative peer caches (§VI) count as "near" at the peer's latency
	// and are read from the peer instead of the WAN.
	plan := geo.PlanFetch(r.env.Matrix, r.env.Cluster.Placement(), key, codec.Total(), r.region)
	order := plan.Order(func(idx int) (time.Duration, bool) {
		p, ok := hint.PeerChunks[idx]
		return p.Latency, ok
	})
	cached := make([]fetchOutcome, 0, k)
	have := make(map[int]bool, k)
	var want, fromPeers []int
	for _, idx := range geo.Pick(order, k, func(idx int) bool { _, ok := inCache[idx]; return ok }, nil) {
		if data, ok := inCache[idx]; ok {
			cached = append(cached, fetchOutcome{index: idx, data: data})
			have[idx] = true
		} else if _, ok := hint.PeerChunks[idx]; ok {
			fromPeers = append(fromPeers, idx)
		} else {
			want = append(want, idx)
		}
	}

	var res Result
	outcomes := cached
	var peerLat time.Duration
	for _, idx := range fromPeers {
		p := hint.PeerChunks[idx]
		// Residency-only peers (live digest mirrors) expose no byte access;
		// in the simulator every real peer cache is a chunkGetter. A peer
		// without one counts as a miss and the chunk detours to the backend.
		getter, ok := p.Store.(chunkGetter)
		if !ok {
			want = append(want, idx)
			continue
		}
		data, err := getter.Get(cache.EntryID{Key: key, Index: idx})
		lat := p.Latency
		if r.env.Sampler != nil {
			lat = r.env.Sampler.Fixed(lat)
		}
		if lat > peerLat {
			peerLat = lat
		}
		if err != nil {
			// Peer evicted it since the hint: fall back to the backend.
			want = append(want, idx)
			continue
		}
		outcomes = append(outcomes, fetchOutcome{index: idx, data: data})
		have[idx] = true
		res.PeerChunks++
	}
	if len(want) > 0 {
		fetched, lat, waves, err := fetchBackend(r.env, r.region, key, want, have, maxWaves(codec))
		if err != nil {
			return nil, Result{Latency: monLat + lat, Waves: waves}, err
		}
		outcomes = append(outcomes, fetched...)
		res.Latency = lat
		res.Waves = waves
		res.BackendChunks = len(fetched)
	}
	if peerLat > res.Latency {
		res.Latency = peerLat
	}
	if len(cached) > 0 {
		if cl := r.env.cacheLatency(); cl > res.Latency {
			res.Latency = cl
		}
	}
	res.Latency += monLat
	res.CacheChunks = len(cached)
	res.FullHit = len(cached) >= k
	res.PartialHit = (len(cached) > 0 && len(cached) < k) || (res.PeerChunks > 0 && len(cached) == 0)

	data, decLat, err := decode(r.env, outcomes)
	if err != nil {
		return nil, res, err
	}
	res.Latency += decLat

	// Populate hinted-but-missing chunks off the read path. The node's
	// admission filter enforces the active configuration.
	if len(missingHint) > 0 {
		byIdx := make(map[int][]byte, len(outcomes))
		for _, o := range outcomes {
			byIdx[o.index] = o.data
		}
		for _, idx := range missingHint {
			chunk, ok := byIdx[idx]
			if !ok {
				chunk, ok = offPathFetch(r.env, r.region, key, idx)
				if !ok {
					continue
				}
			}
			_ = store.Put(cache.EntryID{Key: key, Index: idx}, chunk)
		}
	}
	return data, res, nil
}

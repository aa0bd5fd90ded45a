// Package client implements the erasure-coded storage client and the four
// reading strategies the paper evaluates (§V-A):
//
//   - Backend: read the k nearest chunks directly from the S3-like backend.
//   - LRU-c / LFU-c: read through a local chunk cache that keeps a fixed
//     number c of chunks per object under the LRU or LFU eviction policy.
//   - Agar: consult the local Agar node for a hint, read hinted chunks from
//     the local cache, and fetch the rest from the backend.
//
// Reads request chunks in parallel; the modelled read latency is the
// maximum of the per-chunk latencies (plus a decode cost), exactly how the
// modified YCSB client in the paper measures a full-object read. Cache
// population happens off the read path and adds no latency, matching the
// paper's separate writer thread pool.
package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
)

// ErrUnavailable is returned when fewer than k chunks can be fetched.
var ErrUnavailable = errors.New("client: not enough chunks available")

// Env is the shared per-deployment environment a client reads against.
type Env struct {
	// Cluster is the multi-region backend.
	Cluster *backend.Cluster
	// Matrix holds the true inter-region chunk-read latencies.
	Matrix *geo.LatencyMatrix
	// Sampler perturbs modelled latencies; nil means exact model values.
	Sampler *netsim.Sampler
	// CacheLatency is the cost of reading chunks from the local cache.
	CacheLatency time.Duration
	// DecodeLatency is the CPU cost of erasure decoding one object.
	DecodeLatency time.Duration
	// MonitorLatency is the request-monitor round trip an Agar read pays
	// before fetching (the paper measured ~0.5 ms).
	MonitorLatency time.Duration
	// ChunkBytes is the modelled (paper-scale) chunk size that bandwidth
	// caps on the sampler charge transfer time for; zero keeps chunk
	// latency size-independent, bit-exact with unsized sampling.
	ChunkBytes int
	// StoreLatency and StoreErrRate model the blob-store tier behind every
	// backend region (see store.Tier): extra per-chunk service time over
	// the matrix baseline, and a transient per-chunk failure probability.
	// A failed fetch costs its full latency and triggers the degraded-read
	// substitution waves without blacklisting the region. Both zero — the
	// "mem" tier — leave the model exactly as it was.
	StoreLatency time.Duration
	StoreErrRate float64
}

// chunkLatency samples the modelled latency of reading one chunk from a
// backend region, including the blob-store tier's service time and any
// bandwidth-capped transfer cost.
func (e *Env) chunkLatency(from, to geo.RegionID) time.Duration {
	var lat time.Duration
	switch {
	case e.Sampler != nil && e.ChunkBytes > 0:
		lat = e.Sampler.ChunkSized(from, to, e.ChunkBytes)
	case e.Sampler != nil:
		lat = e.Sampler.Chunk(from, to)
	default:
		lat = e.Matrix.Get(from, to)
	}
	if e.StoreLatency > 0 {
		if e.Sampler != nil {
			lat += e.Sampler.Fixed(e.StoreLatency)
		} else {
			lat += e.StoreLatency
		}
	}
	return lat
}

// storeFault draws one transient blob-tier failure (never for the zero
// rate, which also never touches the sampler's jitter stream).
func (e *Env) storeFault() bool {
	return e.StoreErrRate > 0 && e.Sampler != nil && e.Sampler.Flip(e.StoreErrRate)
}

func (e *Env) cacheLatency() time.Duration {
	if e.Sampler != nil {
		return e.Sampler.Fixed(e.CacheLatency)
	}
	return e.CacheLatency
}

// Result describes one read.
type Result struct {
	// Latency is the modelled end-to-end read latency.
	Latency time.Duration
	// CacheChunks counts chunks served from the local cache.
	CacheChunks int
	// PeerChunks counts chunks served from cooperative peer caches.
	PeerChunks int
	// BackendChunks counts chunks fetched from backend regions.
	BackendChunks int
	// FullHit is true when every needed chunk came from the cache.
	FullHit bool
	// PartialHit is true when at least one but not all chunks came from
	// the cache.
	PartialHit bool
	// Waves counts backend fetch rounds (1 in the failure-free case).
	Waves int
}

// Hit reports whether the read counts towards the paper's Figure 7 hit
// ratio (full or partial hits over requests).
func (r Result) Hit() bool { return r.FullHit || r.PartialHit }

// Reader is a strategy that reads whole objects.
type Reader interface {
	// Read fetches and decodes the object, returning its bytes and the
	// read's accounting.
	Read(key string) ([]byte, Result, error)
	// Name identifies the strategy ("backend", "lru-3", "agar", ...).
	Name() string
}

// fetchOutcome is one chunk obtained from somewhere, with its latency.
type fetchOutcome struct {
	index   int
	data    []byte
	latency time.Duration
}

// fetchBackend fetches the wanted chunk indices from their backend regions
// in parallel waves. If a chunk fails (region down), the next wave
// substitutes the nearest unused chunks. The returned latency is the sum of
// per-wave maxima — the client must wait for the slowest response of a wave
// before it knows it needs more chunks. Indices in `have` are chunks the
// caller already holds (cache or peer hits); substitution never proposes
// them, since re-fetching one would not add a new distinct chunk.
func fetchBackend(env *Env, region geo.RegionID, key string, want []int, have map[int]bool, waveLimit int) ([]fetchOutcome, time.Duration, int, error) {
	codec := env.Cluster.Codec()
	total := codec.Total()
	locs := env.Cluster.Placement().Locate(key, total)
	plan := geo.PlanFetch(env.Matrix, env.Cluster.Placement(), key, total, region)

	tried := make(map[int]bool, total)
	for idx := range have {
		tried[idx] = true
	}
	failedRegions := make(map[geo.RegionID]bool)
	pending := append([]int(nil), want...)
	var out []fetchOutcome
	var totalLat time.Duration
	waves := 0

	for len(pending) > 0 {
		if waves >= waveLimit {
			return nil, totalLat, waves, fmt.Errorf("%w: %q after %d waves", ErrUnavailable, key, waves)
		}
		waves++
		var waveLat time.Duration
		failed := 0
		for _, idx := range pending {
			tried[idx] = true
			lat := env.chunkLatency(region, locs[idx])
			if lat > waveLat {
				waveLat = lat
			}
			// A severed link (netsim partition or region outage) fails the
			// fetch after the full modelled latency — the client pays the
			// timeout before it can substitute another chunk.
			if env.Sampler != nil && env.Sampler.Unreachable(region, locs[idx]) {
				failed++
				failedRegions[locs[idx]] = true
				continue
			}
			// A transient blob-tier fault (flaky remote store) also costs the
			// full latency, but neither blacklists the region nor burns the
			// chunk: the next substitution wave may retry the very same
			// chunk, the way real clients retry a 500 from object storage.
			// waveLimit still bounds the whole read.
			if env.storeFault() {
				failed++
				delete(tried, idx)
				continue
			}
			data, err := env.Cluster.Store(locs[idx]).Get(backend.ChunkID{Key: key, Index: idx})
			if err != nil {
				failed++
				failedRegions[locs[idx]] = true
				continue
			}
			out = append(out, fetchOutcome{index: idx, data: data, latency: lat})
		}
		totalLat += waveLat
		if failed == 0 {
			break
		}
		// Substitute the nearest chunks not yet tried, skipping regions the
		// client has already seen fail during this read; short of those,
		// retry the failed regions (they may have recovered).
		pending = geo.Next(plan.Chunks, failed, func(idx int) bool { return tried[idx] || failedRegions[locs[idx]] })
		if len(pending) < failed {
			pending = append(pending, geo.Next(plan.Chunks, failed-len(pending), func(idx int) bool { return tried[idx] || !failedRegions[locs[idx]] })...)
		}
		if len(pending) < failed {
			return nil, totalLat, waves, fmt.Errorf("%w: %q exhausted all chunks", ErrUnavailable, key)
		}
	}
	return out, totalLat, waves, nil
}

// maxWaves bounds degraded-read retries: every chunk can be tried once.
func maxWaves(codec interface{ Total() int }) int { return codec.Total() }

// offPathFetch reads one chunk directly from its home region for off-path
// cache population, respecting chaos cuts: a chunk behind a severed link
// is not fetchable, exactly as on the read path.
func offPathFetch(env *Env, region geo.RegionID, key string, idx int) ([]byte, bool) {
	locs := env.Cluster.Placement().Locate(key, env.Cluster.Codec().Total())
	if idx < 0 || idx >= len(locs) {
		return nil, false
	}
	if env.Sampler != nil && env.Sampler.Unreachable(region, locs[idx]) {
		return nil, false
	}
	data, err := env.Cluster.GetChunk(key, idx)
	if err != nil {
		return nil, false
	}
	return data, true
}

// decode reassembles the object from fetched chunks and returns the decode
// cost to add to the read latency.
func decode(env *Env, outcomes []fetchOutcome) ([]byte, time.Duration, error) {
	codec := env.Cluster.Codec()
	chunks := make([][]byte, codec.Total())
	for _, o := range outcomes {
		chunks[o.index] = o.data
	}
	data, err := codec.Decode(chunks)
	if err != nil {
		return nil, 0, fmt.Errorf("client: decode: %w", err)
	}
	dec := env.DecodeLatency
	if env.Sampler != nil {
		dec = env.Sampler.Fixed(dec)
	}
	return data, dec, nil
}

// BackendReader reads the k nearest chunks straight from the backend — the
// paper's "Backend" baseline and the c=0 case of Figure 2.
type BackendReader struct {
	env    *Env
	region geo.RegionID
}

// NewBackendReader returns a backend-only reader for a client region.
func NewBackendReader(env *Env, region geo.RegionID) *BackendReader {
	return &BackendReader{env: env, region: region}
}

// Name implements Reader.
func (r *BackendReader) Name() string { return "backend" }

// Read implements Reader.
func (r *BackendReader) Read(key string) ([]byte, Result, error) {
	codec := r.env.Cluster.Codec()
	plan := geo.PlanFetch(r.env.Matrix, r.env.Cluster.Placement(), key, codec.Total(), r.region)
	want := plan.NearestK(codec.K())
	outcomes, lat, waves, err := fetchBackend(r.env, r.region, key, want, nil, maxWaves(codec))
	if err != nil {
		return nil, Result{Latency: lat, Waves: waves}, err
	}
	data, decLat, err := decode(r.env, outcomes)
	if err != nil {
		return nil, Result{Latency: lat, Waves: waves}, err
	}
	res := Result{
		Latency:       lat + decLat,
		BackendChunks: len(outcomes),
		Waves:         waves,
	}
	return data, res, nil
}

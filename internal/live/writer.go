package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/hlc"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/netsim"
)

// Session carries one client's coherence floors across reads and writes:
// each write records its version, and a session read refuses to settle on
// anything older — read-your-writes without any cross-client coordination.
// Successful reads also advance the floor (monotonic reads). Safe for
// concurrent use, though a session models one logical client.
type Session struct {
	mu     sync.Mutex
	floors map[string]uint64
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{floors: make(map[string]uint64)} }

// Observe raises the session's floor for the key (never lowers it).
func (s *Session) Observe(key string, ver uint64) {
	if ver == 0 {
		return
	}
	s.mu.Lock()
	if ver > s.floors[key] {
		s.floors[key] = ver
	}
	s.mu.Unlock()
}

// Floor returns the session's version floor for the key (zero when the
// session has never touched it).
func (s *Session) Floor(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[key]
}

// NetworkWriter is the versioned mutation path over the live deployment:
// every write stamps one hybrid-logical-clock version, erasure-codes the
// object, writes each chunk through to its placed region's store server
// under that version, and then invalidates the client region's cache so no
// pre-write chunk is served again. Cross-region caches learn of the write
// through the cooperative digest mesh (the invalidation rides the next
// digest), which bounds their staleness at one digest period. Writes to
// the same key from anywhere resolve last-writer-wins by version; a write
// racing a newer one fails with *backend.StaleError instead of partially
// overwriting it.
type NetworkWriter struct {
	cluster *Cluster
	region  geo.RegionID
	clock   *hlc.Clock
	stores  map[geo.RegionID]*RemoteStore
	cacheC  *RemoteCache
	sampler *netsim.Sampler
	hist    *metrics.Histogram
}

// writeBuckets cover client-observed end-to-end write latencies: 0.5 ms
// (loopback) through ~16 s (an unscaled WAN worst case with retries).
var writeBuckets = metrics.ExponentialBuckets(0.0005, 2, 15)

// NewNetworkWriter connects a writer to every store server of the cluster
// plus the client region's cache server.
func NewNetworkWriter(c *Cluster, region geo.RegionID) *NetworkWriter {
	stores := make(map[geo.RegionID]*RemoteStore, len(c.storeSrvs))
	for r, srv := range c.storeSrvs {
		stores[r] = NewRemoteStore(srv.Addr())
	}
	sampler := netsim.NewSampler(c.cfg.Matrix, 0, 1)
	if c.cfg.Schedule != nil {
		sampler.SetChaos(netsim.RealClock{}, c.cfg.Schedule)
	}
	return &NetworkWriter{
		cluster: c,
		region:  region,
		clock:   hlc.New(),
		stores:  stores,
		cacheC:  NewRemoteCache(c.CacheAddr()),
		sampler: sampler,
		hist: c.reg.NewHistogramVec(metrics.NameClientWriteSeconds,
			"Client-observed end-to-end latency of one versioned write in seconds.",
			writeBuckets, "region").With(region.String()),
	}
}

// SetClock swaps the writer's physical time source — the virtual-time hook
// for deterministic tests; nil restores the wall clock.
func (w *NetworkWriter) SetClock(now func() time.Time) { w.clock.SetClock(now) }

// Close drops every pooled connection.
func (w *NetworkWriter) Close() {
	w.cacheC.Close()
	for _, s := range w.stores {
		s.Close()
	}
}

// delay sleeps for the scaled wide-area latency of one chunk write, the
// same client-side injection the read path uses.
func (w *NetworkWriter) delay(to geo.RegionID) {
	if w.cluster.cfg.DelayScale <= 0 {
		return
	}
	lat := w.sampler.Chunk(w.region, to)
	time.Sleep(time.Duration(float64(lat) * w.cluster.cfg.DelayScale))
}

// Write erasure-codes the object, writes every chunk through to its placed
// region under a fresh write version, and invalidates the local cache at
// that version. It returns the version, which callers feed into a Session
// for read-your-writes. Chunks write to all regions in parallel (one
// goroutine per region, chunks of a region sequential on its pooled
// connections); the slowest region bounds the write, like the paper's
// full-stripe backend writes. A region refusing the write as stale aborts
// with *backend.StaleError — a newer write already won everywhere it
// landed, so finishing this one could only tear it.
func (w *NetworkWriter) Write(key string, data []byte) (uint64, error) {
	start := time.Now()
	ver := uint64(w.clock.Now())
	chunks, err := w.cluster.codec.Split(data)
	if err != nil {
		return 0, err
	}
	locs := w.cluster.cluster.Placement().Locate(key, len(chunks))

	byRegion := make(map[geo.RegionID][]int)
	for idx := range chunks {
		byRegion[locs[idx]] = append(byRegion[locs[idx]], idx)
	}
	errs := make(chan error, len(byRegion))
	var wg sync.WaitGroup
	for region, idxs := range byRegion {
		wg.Add(1)
		go func(region geo.RegionID, idxs []int) {
			defer wg.Done()
			w.delay(region)
			for _, idx := range idxs {
				if err := w.stores[region].PutVer(backend.ChunkID{Key: key, Index: idx}, chunks[idx], ver); err != nil {
					errs <- fmt.Errorf("live: write %q chunk %d to %v: %w", key, idx, region, err)
					return
				}
			}
			errs <- nil
		}(region, idxs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}

	// Local invalidation: raise the cache server's floor so pre-write
	// chunks are dropped now rather than at the next digest. Best-effort
	// stale refusal is fine — it means a newer write already invalidated.
	if err := w.cacheC.DeleteObjectVer(key, ver); err != nil {
		var stale *backend.StaleError
		if !errors.As(err, &stale) {
			return 0, fmt.Errorf("live: invalidate %q: %w", key, err)
		}
	}
	w.observe(start)
	return ver, nil
}

// WriteSession is Write plus the session bookkeeping. The session's floor
// for the key is merged into the writer's clock first (the HLC receive
// rule), so the write stamps above every version the session has read or
// written even when this writer's clock lags; afterwards the floor rises
// to the write's version, so the session's next read refuses anything
// older.
func (w *NetworkWriter) WriteSession(key string, data []byte, sess *Session) (uint64, error) {
	if sess != nil {
		w.clock.Observe(hlc.Timestamp(sess.Floor(key)))
	}
	ver, err := w.Write(key, data)
	if err == nil && sess != nil {
		sess.Observe(key, ver)
	}
	return ver, err
}

func (w *NetworkWriter) observe(start time.Time) {
	if w.hist != nil {
		w.hist.Observe(time.Since(start).Seconds())
	}
}

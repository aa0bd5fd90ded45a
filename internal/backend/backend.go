// Package backend implements the persistent chunk store that stands in for
// the paper's per-region Amazon S3 buckets.
//
// A Store is one region's bucket view: a durable, concurrency-safe mapping
// from (object key, chunk index) to chunk bytes, with region-level failure
// injection. Since PR 4 the actual persistence is pluggable: every Store
// delegates to a store.BlobStore adapter (in-memory by default — the exact
// original semantics — or the disk / remote-gateway adapters), using the
// region name as its bucket. A Cluster groups one Store per region and
// knows how to spread an object's erasure-coded chunks across them under a
// placement policy, exactly like the deployment in the paper's Figure 1.
package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/store"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("backend: chunk not found")
	ErrDown     = errors.New("backend: region is down")
)

// ChunkID identifies one stored chunk.
type ChunkID struct {
	Key   string
	Index int
}

// blobID converts to the blob layer's chunk address.
func (id ChunkID) blobID() store.ChunkID { return store.ChunkID{Key: id.Key, Index: id.Index} }

// Store is a single region's chunk bucket. It is safe for concurrent use.
// The zero value is not usable; construct with NewStore or NewStoreOn.
type Store struct {
	region geo.RegionID
	bucket string
	blob   store.BlobStore

	mu   sync.RWMutex
	down bool

	// Versioned write path (versioned.go): lazily-built mirror of the
	// bucket's persisted per-key version records.
	verOnce  sync.Once
	verCache *versionCache
}

// NewStore returns an empty in-memory bucket for the region — the default
// adapter, with the semantics the backend always had.
func NewStore(region geo.RegionID) *Store {
	return NewStoreOn(region, store.NewMem())
}

// NewStoreOn returns the region's bucket view over an explicit blob-store
// adapter, using the region name as the bucket. Several regions may share
// one adapter (one disk root, one gateway): their buckets stay disjoint.
func NewStoreOn(region geo.RegionID, blob store.BlobStore) *Store {
	return &Store{region: region, bucket: region.String(), blob: blob}
}

// Region returns the region this bucket lives in.
func (s *Store) Region() geo.RegionID { return s.region }

// isDown reports the injected-failure flag.
func (s *Store) isDown() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.down
}

// Put stores a copy of the chunk bytes.
func (s *Store) Put(id ChunkID, data []byte) error {
	if s.isDown() {
		return ErrDown
	}
	return s.blob.PutChunk(context.Background(), s.bucket, id.blobID(), data)
}

// Get returns a copy of the chunk bytes, ErrNotFound when absent, or
// ErrDown while the region is failed.
func (s *Store) Get(id ChunkID) ([]byte, error) {
	if s.isDown() {
		return nil, ErrDown
	}
	data, err := s.blob.GetChunk(context.Background(), s.bucket, id.blobID())
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return data, err
}

// GetMulti fetches several chunks of one key in a single adapter round trip
// and returns whichever exist, keyed by index — the batched form of Get
// that keeps a remote blob tier to one HTTP exchange.
func (s *Store) GetMulti(key string, indices []int) (map[int][]byte, error) {
	if s.isDown() {
		return nil, ErrDown
	}
	return s.blob.GetChunks(context.Background(), s.bucket, key, indices)
}

// Len returns the number of stored chunks (0 when the adapter errors; use
// StatsChecked to distinguish).
func (s *Store) Len() int {
	st, _ := s.StatsChecked()
	return int(st.Chunks)
}

// Bytes returns the total stored bytes (0 when the adapter errors; use
// StatsChecked to distinguish).
func (s *Store) Bytes() int64 {
	st, _ := s.StatsChecked()
	return st.Bytes
}

// StatsChecked returns the bucket's chunk/byte accounting or the adapter
// error, so a gateway blip is not reported as an empty region.
func (s *Store) StatsChecked() (store.Stats, error) {
	return s.blob.Stats(context.Background(), s.bucket)
}

// Keys returns the sorted distinct object keys with at least one chunk here.
func (s *Store) Keys() []string {
	keys, err := s.blob.List(context.Background(), s.bucket)
	if err != nil {
		return nil
	}
	return keys
}

// SetDown marks the region failed (true) or healthy (false). While down,
// every Get and Put fails with ErrDown — the failure-injection hook for
// degraded-read tests. The flag lives above the blob adapter, so a "down"
// region's durable chunks survive for its recovery.
func (s *Store) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// Down reports whether the region is failed.
func (s *Store) Down() bool { return s.isDown() }

// Cluster is the multi-region backend: one Store per region plus the codec
// and placement that map objects onto chunks onto regions.
type Cluster struct {
	codec     *erasure.Codec
	placement geo.Placement
	stores    map[geo.RegionID]*Store
	regions   []geo.RegionID
}

// NewCluster builds a cluster with one empty in-memory store per region.
func NewCluster(regions []geo.RegionID, codec *erasure.Codec, placement geo.Placement) *Cluster {
	return NewClusterOn(regions, codec, placement, store.NewMem())
}

// NewClusterOn builds a cluster whose regions persist chunks in the given
// blob store, one bucket per region — the seam that swaps the whole backend
// tier between in-memory, on-disk and remote-gateway deployments.
func NewClusterOn(regions []geo.RegionID, codec *erasure.Codec, placement geo.Placement, blob store.BlobStore) *Cluster {
	if len(regions) == 0 {
		panic("backend: cluster needs at least one region")
	}
	stores := make(map[geo.RegionID]*Store, len(regions))
	for _, r := range regions {
		stores[r] = NewStoreOn(r, blob)
	}
	cp := make([]geo.RegionID, len(regions))
	copy(cp, regions)
	return &Cluster{codec: codec, placement: placement, stores: stores, regions: cp}
}

// Codec returns the cluster's erasure codec.
func (c *Cluster) Codec() *erasure.Codec { return c.codec }

// Placement returns the cluster's chunk placement policy.
func (c *Cluster) Placement() geo.Placement { return c.placement }

// Regions returns the cluster's regions in construction order.
func (c *Cluster) Regions() []geo.RegionID {
	out := make([]geo.RegionID, len(c.regions))
	copy(out, c.regions)
	return out
}

// Store returns the bucket for a region, or nil if the region is unknown.
func (c *Cluster) Store(r geo.RegionID) *Store { return c.stores[r] }

// PutObject encodes the object and writes each chunk to its placed region.
func (c *Cluster) PutObject(key string, data []byte) error {
	chunks, err := c.codec.Split(data)
	if err != nil {
		return fmt.Errorf("backend: encode %q: %w", key, err)
	}
	locs := c.placement.Locate(key, len(chunks))
	for i, chunk := range chunks {
		st := c.stores[locs[i]]
		if st == nil {
			return fmt.Errorf("backend: placement names unknown region %v", locs[i])
		}
		if err := st.Put(ChunkID{Key: key, Index: i}, chunk); err != nil {
			return fmt.Errorf("backend: store chunk %d of %q in %v: %w", i, key, locs[i], err)
		}
	}
	return nil
}

// GetChunk reads one chunk from the region that the placement assigns it.
func (c *Cluster) GetChunk(key string, index int) ([]byte, error) {
	locs := c.placement.Locate(key, c.codec.Total())
	if index < 0 || index >= len(locs) {
		return nil, fmt.Errorf("backend: chunk index %d out of range", index)
	}
	return c.stores[locs[index]].Get(ChunkID{Key: key, Index: index})
}

// GetObject fetches the k nearest available chunks (any k, preferring data
// chunks) and decodes the object. It is a convenience for tests and tools;
// the latency-aware read path lives in the client package.
func (c *Cluster) GetObject(key string) ([]byte, error) {
	total := c.codec.Total()
	chunks := make([][]byte, total)
	got := 0
	var firstErr error
	for i := 0; i < total && got < c.codec.K(); i++ {
		data, err := c.GetChunk(key, i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		chunks[i] = data
		got++
	}
	if got < c.codec.K() {
		return nil, fmt.Errorf("backend: only %d of %d chunks of %q available: %w",
			got, c.codec.K(), key, firstErr)
	}
	return c.codec.Decode(chunks)
}

// TotalBytes returns the bytes stored across all regions (the paper's
// "400 MB including redundancy" figure for its 300-object working set).
func (c *Cluster) TotalBytes() int64 {
	var n int64
	for _, s := range c.stores {
		n += s.Bytes()
	}
	return n
}

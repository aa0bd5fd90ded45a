package agar

import (
	"time"

	"github.com/agardist/agar/internal/live"
)

// LiveConfig sizes a live localhost deployment: every role (per-region
// store servers, the client region's cache server, and the Agar node's
// TCP/UDP hint service) runs over real sockets.
type LiveConfig struct {
	// ClientRegion hosts the Agar node (default Frankfurt).
	ClientRegion Region
	// K, M are the erasure-code parameters (default 9+3).
	K, M int
	// CacheBytes bounds the node's cache; ChunkBytes is the slot unit.
	CacheBytes, ChunkBytes int64
	// ReconfigPeriod is the node's wall-clock period (default 30 s).
	ReconfigPeriod time.Duration
	// DelayScale compresses emulated wide-area delays (0 disables them;
	// 0.01 turns 980 ms into 9.8 ms).
	DelayScale float64
	// UseUDPHints selects the UDP hint channel, as in the paper's
	// prototype.
	UseUDPHints bool
}

// LiveCluster is a running localhost deployment of the full system.
type LiveCluster struct {
	inner *live.Cluster
}

// StartLiveCluster boots every role on ephemeral localhost ports.
func StartLiveCluster(cfg LiveConfig) (*LiveCluster, error) {
	inner, err := live.StartCluster(live.ClusterConfig{
		ClientRegion:   cfg.ClientRegion,
		K:              cfg.K,
		M:              cfg.M,
		CacheBytes:     cfg.CacheBytes,
		ChunkBytes:     cfg.ChunkBytes,
		ReconfigPeriod: cfg.ReconfigPeriod,
		DelayScale:     cfg.DelayScale,
		UseUDPHints:    cfg.UseUDPHints,
	})
	if err != nil {
		return nil, err
	}
	return &LiveCluster{inner: inner}, nil
}

// Put loads an object into the backend.
func (lc *LiveCluster) Put(key string, data []byte) error {
	return lc.inner.Backend().PutObject(key, data)
}

// Reconfigure forces the Agar node to recompute its configuration now.
func (lc *LiveCluster) Reconfigure() { lc.inner.Node().ForceReconfigure() }

// CacheContents snapshots the node cache (object key -> resident chunks).
func (lc *LiveCluster) CacheContents() map[string][]int {
	return lc.inner.Node().Cache().Snapshot()
}

// StoreAddr returns a region's store server address.
func (lc *LiveCluster) StoreAddr(r Region) string { return lc.inner.StoreAddr(r) }

// CacheAddr returns the cache server address.
func (lc *LiveCluster) CacheAddr() string { return lc.inner.CacheAddr() }

// HintAddr returns the TCP hint service address.
func (lc *LiveCluster) HintAddr() string { return lc.inner.HintAddr() }

// Close shuts all servers down.
func (lc *LiveCluster) Close() { lc.inner.Close() }

// LiveReader reads objects from a live cluster over the network with truly
// parallel chunk fetches.
type LiveReader struct {
	inner *live.NetworkReader
}

// NewLiveReader connects a network reader from the given client region.
func (lc *LiveCluster) NewLiveReader(region Region) (*LiveReader, error) {
	inner, err := live.NewNetworkReader(lc.inner, region)
	if err != nil {
		return nil, err
	}
	return &LiveReader{inner: inner}, nil
}

// Get reads one object, returning its bytes, the wall-clock latency, and
// how many chunks came from the cache.
func (r *LiveReader) Get(key string) ([]byte, time.Duration, int, error) {
	return r.inner.Read(key)
}

// Flush blocks until every cache fill queued by earlier reads has been
// applied. Fills are asynchronous: without it, a read issued right after
// the one that populates the cache may still miss.
func (r *LiveReader) Flush() { r.inner.FlushPopulation() }

// Close drops the reader's connections.
func (r *LiveReader) Close() { r.inner.Close() }

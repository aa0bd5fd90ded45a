package core

import (
	"sync"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

// NodeParams configures an Agar node.
type NodeParams struct {
	// Region is where this node runs.
	Region geo.RegionID
	// Regions is the full topology.
	Regions []geo.RegionID
	// Placement maps chunks onto regions.
	Placement geo.Placement
	// K and M are the erasure-code parameters.
	K, M int
	// CacheBytes bounds the node's cache.
	CacheBytes int64
	// ChunkBytes is the size of one chunk, used to express the cache
	// capacity in slots for the knapsack.
	ChunkBytes int64
	// ReconfigPeriod is how often the cache manager recomputes the
	// configuration; the paper's evaluation uses 30 seconds.
	ReconfigPeriod time.Duration
	// Alpha is the popularity EWMA coefficient (default 0.8).
	Alpha float64
	// CacheLatency is the local cache access time for option valuation.
	CacheLatency time.Duration
	// Solver and EarlyStop forward to ManagerParams.
	Solver    Solver
	EarlyStop int
}

// Node is one region's Agar deployment (§III, Figure 3): the request
// monitor, region manager, cache manager and cache, wired together. Reads
// flow through HandleRead; reconfiguration is driven either manually
// (MaybeReconfigure, for simulated time) or by Run (wall-clock ticker).
type Node struct {
	params  NodeParams
	monitor *Monitor
	regions *RegionManager
	manager *CacheManager
	store   *cache.Cache

	mu         sync.Mutex
	lastReconf time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// NewNode builds an Agar node. The cache runs under LRU with an admission
// filter: only chunks in the active knapsack configuration are admitted
// (clients write them per the hints they receive), while chunks that left
// the configuration age out of the LRU tail — the same division of labour
// as the paper's memcached-backed prototype.
func NewNode(params NodeParams) *Node {
	if params.K <= 0 || params.M < 0 {
		panic("core: node needs valid erasure parameters")
	}
	if params.ChunkBytes <= 0 {
		panic("core: node needs positive chunk size")
	}
	if params.Alpha == 0 {
		params.Alpha = DefaultAlpha
	}
	if params.ReconfigPeriod <= 0 {
		params.ReconfigPeriod = 30 * time.Second
	}
	store := cache.NewSharded(maxInt64(params.CacheBytes, 1),
		defaultCacheShards(params.CacheBytes/params.ChunkBytes),
		func() cache.Policy { return cache.NewLRU() })
	monitor := NewMonitor(params.Alpha)
	regions := NewRegionManager(params.Region, params.Regions, params.Placement, params.K+params.M)
	slots := int(params.CacheBytes / params.ChunkBytes)
	manager := NewCacheManager(ManagerParams{
		K:            params.K,
		CacheSlots:   slots,
		CacheLatency: params.CacheLatency,
		Solver:       params.Solver,
		EarlyStop:    params.EarlyStop,
	}, monitor, regions, store)
	// Until the first reconfiguration nothing is admitted: the cache is
	// governed strictly by the active (initially empty) configuration.
	store.SetAdmission(func(cache.EntryID) bool { return false })
	return &Node{
		params:  params,
		monitor: monitor,
		regions: regions,
		manager: manager,
		store:   store,
		stopCh:  make(chan struct{}),
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// defaultCacheShards picks the node cache's shard count from its slot
// count. The knapsack manager plans contents that fill capacity exactly,
// so any per-shard budget sees some hash imbalance: striping a cache of S
// slots k ways churns on the order of sqrt(S) configured chunks per
// reconfiguration (the overfull shards' excess), which self-heals — the
// evicted chunks re-fill on their next read — but costs hit ratio.
// Below 1024 slots the cache therefore stays on one shard (exact global
// LRU, the semantics the paper's evaluation-scale runs assume); larger
// caches stripe up to 16 ways with at least 512 slots per shard, keeping
// the expected churn around one percent of contents in exchange for lock
// striping under fan-in.
func defaultCacheShards(slots int64) int {
	n := 1
	for slots/int64(n*2) >= 512 && n < 16 {
		n *= 2
	}
	return n
}

// Monitor exposes the node's request monitor.
func (n *Node) Monitor() *Monitor { return n.monitor }

// RegionManager exposes the node's region manager.
func (n *Node) RegionManager() *RegionManager { return n.regions }

// Manager exposes the node's cache manager.
func (n *Node) Manager() *CacheManager { return n.manager }

// Cache exposes the node's chunk cache.
func (n *Node) Cache() *cache.Cache { return n.store }

// Region returns the node's region.
func (n *Node) Region() geo.RegionID { return n.params.Region }

// HandleRead is the per-request fast path (§III-b): record the access and
// return the caching hint for the key.
func (n *Node) HandleRead(key string) Hint {
	n.monitor.Record(key)
	return n.manager.HintFor(key)
}

// MaybeReconfigure reconfigures if at least one period has elapsed since
// the previous run, using the caller's clock (virtual time in simulation).
// It reports whether a reconfiguration ran.
func (n *Node) MaybeReconfigure(now time.Time) bool {
	n.mu.Lock()
	due := n.lastReconf.IsZero() || now.Sub(n.lastReconf) >= n.params.ReconfigPeriod
	if due {
		n.lastReconf = now
	}
	n.mu.Unlock()
	if !due {
		return false
	}
	n.manager.Reconfigure()
	return true
}

// ForceReconfigure runs a reconfiguration immediately.
func (n *Node) ForceReconfigure() *Config {
	n.mu.Lock()
	n.lastReconf = time.Now()
	n.mu.Unlock()
	return n.manager.Reconfigure()
}

// Start launches periodic wall-clock reconfiguration in a background
// goroutine. It is idempotent; pair it with Stop.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ticker := time.NewTicker(n.params.ReconfigPeriod)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					n.manager.Reconfigure()
				case <-n.stopCh:
					return
				}
			}
		}()
	})
}

// Stop terminates the reconfiguration loop (if running) and waits for it to
// exit. Safe to call multiple times and without a prior Start.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.wg.Wait()
}

package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/agardist/agar/internal/cache"
)

// Solver selects the algorithm the cache manager uses to choose cache
// contents.
type Solver int

const (
	// SolverPopulate is the paper's POPULATE/RELAX dynamic program, the
	// default of a bare ManagerParams and what the simulated plane and the
	// paper's figures run.
	SolverPopulate Solver = iota + 1
	// SolverExact is the exact multiple-choice-knapsack program — the
	// optimum POPULATE approximates, in milliseconds. Every live deployment
	// runs it.
	SolverExact
	// SolverGreedy is the density-greedy heuristic (ablation baseline).
	SolverGreedy
)

// String returns the solver name.
func (s Solver) String() string {
	switch s {
	case SolverPopulate:
		return "populate"
	case SolverExact:
		return "exact"
	case SolverGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("solver(%d)", int(s))
	}
}

// ManagerParams configures a CacheManager.
type ManagerParams struct {
	// K is the number of data chunks per object.
	K int
	// CacheSlots is the cache capacity expressed in chunk slots.
	CacheSlots int
	// CacheLatency is the local cache access time used when valuing fully
	// cached objects.
	CacheLatency time.Duration
	// Solver picks the configuration algorithm; zero means SolverPopulate.
	Solver Solver
	// EarlyStop forwards to PopulateParams.EarlyStop.
	EarlyStop int
}

// CacheManager periodically recomputes the ideal cache configuration from
// popularity statistics and latency estimates, and applies it to the local
// cache (§III-c). It is safe for concurrent use.
type CacheManager struct {
	params  ManagerParams
	monitor PopularitySource
	regions *RegionManager
	store   *cache.Cache

	// planMu admits one planning run at a time: a reconfiguration is
	// compared with, and replaces, the configuration before it, and the
	// exact solver's scratch is kept from period to period.
	planMu  sync.Mutex
	scratch mckpScratch

	mu       sync.Mutex
	active   *Config
	runs     int
	lastRun  ReconfigRun
	observer func(ReconfigRun)
	peers    []PeerInfo
}

// ReconfigRun describes one completed reconfiguration.
type ReconfigRun struct {
	// Solver is the algorithm that chose the configuration.
	Solver Solver
	// Duration covers the whole run: closing the monitor's period, building
	// the option set, solving, and publishing the result.
	Duration time.Duration
	// Value and Weight are the new configuration's.
	Value  float64
	Weight int
	// Keys is how many objects had options to choose from.
	Keys int
	// MovedKeys is how many objects' configured chunk sets differ from the
	// configuration this run replaced (added, dropped, grown or shrunk).
	MovedKeys int
}

// NewCacheManager wires a manager to its monitor, region manager and cache.
func NewCacheManager(params ManagerParams, monitor PopularitySource, regions *RegionManager, store *cache.Cache) *CacheManager {
	if params.K <= 0 {
		panic("core: manager needs K > 0")
	}
	if params.CacheSlots < 0 {
		panic("core: negative cache slots")
	}
	if params.Solver == 0 {
		params.Solver = SolverPopulate
	}
	return &CacheManager{
		params:  params,
		monitor: monitor,
		regions: regions,
		store:   store,
		active:  NewConfig(),
	}
}

// Active returns the configuration currently in force.
func (cm *CacheManager) Active() *Config {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.active
}

// Runs returns how many reconfigurations have completed.
func (cm *CacheManager) Runs() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.runs
}

// LastRun describes the most recent reconfiguration (the zero value before
// the first).
func (cm *CacheManager) LastRun() ReconfigRun {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.lastRun
}

// OnReconfigure registers fn to be called after every reconfiguration with
// that run's description, replacing any earlier registration. fn runs on
// the reconfiguring goroutine once the new configuration is in force.
func (cm *CacheManager) OnReconfigure(fn func(ReconfigRun)) {
	cm.mu.Lock()
	cm.observer = fn
	cm.mu.Unlock()
}

// Reconfigure closes the monitor's period, recomputes the ideal
// configuration, puts it in force, and returns it.
//
// The configuration governs two things — the hints clients are given and
// the inserts the cache admits — and both switch under one hold of cm.mu,
// so a client is never hinted a chunk the cache would turn away. Configured
// chunks are not prefetched: clients populate them on their next read,
// exactly as Agar's hint flow works. Chunks that left the configuration are
// not deleted eagerly: as in the memcached-backed prototype, they simply
// stop being read and the cache's LRU policy evicts them when space is
// needed, so an object that briefly drops out of the configuration and
// returns keeps its chunks warm.
func (cm *CacheManager) Reconfigure() *Config {
	cfg, run, observer := cm.reconfigure()
	if observer != nil {
		observer(run)
	}
	return cfg
}

func (cm *CacheManager) reconfigure() (*Config, ReconfigRun, func(ReconfigRun)) {
	cm.planMu.Lock()
	defer cm.planMu.Unlock()
	start := time.Now()
	cfg, keys := cm.compute(cm.monitor.EndPeriod())
	run := ReconfigRun{
		Solver:    cm.params.Solver,
		Value:     cfg.Value,
		Weight:    cfg.Weight,
		Keys:      keys,
		MovedKeys: movedKeys(cm.Active(), cfg),
	}

	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.store != nil {
		cm.store.SetAdmission(cfg.Holds)
	}
	cm.active = cfg
	cm.runs++
	run.Duration = time.Since(start)
	cm.lastRun = run
	return cfg, run, cm.observer
}

// movedKeys counts the keys whose configured chunks differ between two
// configurations.
func movedKeys(old, cfg *Config) int {
	moved := 0
	for key, o := range cfg.Options {
		if prev, ok := old.Options[key]; !ok || !slices.Equal(prev.Chunks, o.Chunks) {
			moved++
		}
	}
	for key := range old.Options {
		if _, ok := cfg.Options[key]; !ok {
			moved++
		}
	}
	return moved
}

// Compute derives the ideal configuration for a popularity snapshot without
// touching the cache — the planning core, exposed for tests and ablations.
func (cm *CacheManager) Compute(popularity map[string]float64) *Config {
	cm.planMu.Lock()
	defer cm.planMu.Unlock()
	cfg, _ := cm.compute(popularity)
	return cfg
}

// compute is Compute under planMu, also reporting how many keys the solver
// chose among.
func (cm *CacheManager) compute(popularity map[string]float64) (*Config, int) {
	plan := cm.regions.planner()
	peers := cm.Peers()
	grid := DefaultWeightGrid(cm.params.K)
	perKey := make(map[string][]Option, len(popularity))
	for key, pop := range popularity {
		if pop <= 0 {
			continue
		}
		// Cooperative caching (SVI): chunks resident in peer caches are
		// already cheap, so options are valued against the adjusted plan
		// and the knapsack spends local slots elsewhere.
		adjusted := adjustPlanForPeers(plan(key), peerResidency(peers, key))
		opts := GenerateOptions(key, pop, adjusted, cm.params.K, grid, cm.params.CacheLatency)
		if len(opts) > 0 {
			perKey[key] = opts
		}
	}
	// GenerateOptions emits one option per grid weight in grid order, and
	// the grid is ascending, so the slices are used as they are.
	set := orderOptionSet(perKey)
	var cfg *Config
	switch cm.params.Solver {
	case SolverExact:
		cfg = cm.scratch.solve(set, cm.params.CacheSlots)
	case SolverGreedy:
		cfg = Greedy(set, cm.params.CacheSlots)
	default:
		cfg = Populate(set, cm.params.CacheSlots, PopulateParams{EarlyStop: cm.params.EarlyStop})
	}
	return cfg, len(set.Keys)
}

// Hint is the answer the request monitor hands a client before a read
// (§III-b): which of the object's chunks the local cache is configured to
// hold. The client reads those from the cache (inserting them on a miss)
// and fetches the rest from the backend.
type Hint struct {
	// Key is the object the hint is for.
	Key string
	// CacheChunks lists the chunk indices configured for local caching;
	// empty means the object is not cached this period.
	CacheChunks []int
	// PeerChunks maps chunk indices resident in cooperative peer caches to
	// the peer to read them from (SVI extension); chunks also in
	// CacheChunks are omitted.
	PeerChunks map[int]PeerInfo
}

// HintFor returns the current hint for a key: the union of the chunks the
// active configuration assigns to the key and the chunks already resident
// in the cache (the "cache info" feed of Figure 3). Including residents
// means an object that briefly drops out of the configuration keeps serving
// partial hits until its chunks actually age out of the cache.
func (cm *CacheManager) HintFor(key string) Hint {
	cm.mu.Lock()
	configured := cm.active.ChunksFor(key)
	cm.mu.Unlock()

	if cm.store == nil {
		return cm.withPeerChunks(Hint{Key: key, CacheChunks: configured})
	}
	resident := cm.store.IndicesOf(key)
	if len(resident) == 0 {
		return cm.withPeerChunks(Hint{Key: key, CacheChunks: configured})
	}
	seen := make(map[int]bool, len(configured)+len(resident))
	union := make([]int, 0, len(configured)+len(resident))
	for _, idx := range configured {
		if !seen[idx] {
			seen[idx] = true
			union = append(union, idx)
		}
	}
	for _, idx := range resident {
		if !seen[idx] {
			seen[idx] = true
			union = append(union, idx)
		}
	}
	return cm.withPeerChunks(Hint{Key: key, CacheChunks: union})
}

// withPeerChunks annotates a hint with chunks readable from peer caches.
func (cm *CacheManager) withPeerChunks(h Hint) Hint {
	resident := peerResidency(cm.Peers(), h.Key)
	if len(resident) == 0 {
		return h
	}
	local := make(map[int]bool, len(h.CacheChunks))
	for _, idx := range h.CacheChunks {
		local[idx] = true
	}
	for idx, p := range resident {
		if local[idx] {
			continue
		}
		if h.PeerChunks == nil {
			h.PeerChunks = make(map[int]PeerInfo)
		}
		h.PeerChunks[idx] = p
	}
	return h
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§II-C and §V) against the simulated wide-area deployment.
//
// Each experiment function returns a structured result with a Render method
// that prints the same rows or series the paper reports. The deployment is
// scaled down in bytes (small objects keep erasure coding cheap) but not in
// shape: cache capacities are converted to chunk slots exactly as the
// paper's megabyte figures imply (a 10 MB cache holds 90 of the 1 MB
// objects' chunks), latencies come from the calibrated region matrix, and
// every read exercises the full coding/caching/decoding path.
package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/client"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/workload"
	"github.com/agardist/agar/internal/ycsb"
)

// Params configures a deployment and measurement campaign.
type Params struct {
	// NumObjects is the working-set size (paper: 300).
	NumObjects int
	// ObjectBytes is the real size of simulated objects. The paper uses
	// 1 MB; the harness defaults to 9 KiB so decoding stays fast while the
	// chunk count and layout are identical.
	ObjectBytes int
	// PaperObjectBytes is the object size the paper's cache-capacity
	// figures assume (1 MB); cache sizes in "paper megabytes" convert to
	// chunk slots through this.
	PaperObjectBytes int
	// K and M are the Reed-Solomon parameters (paper: 9+3).
	K, M int
	// RotatePlacement spreads chunk layouts across objects; the paper's
	// fixed round-robin keeps every object's layout identical.
	RotatePlacement bool
	// Matrix is the inter-region latency model; nil means
	// geo.DefaultMatrix().
	Matrix *geo.LatencyMatrix
	// CacheLatency, DecodeLatency and MonitorLatency parameterise the
	// client latency model.
	CacheLatency   time.Duration
	DecodeLatency  time.Duration
	MonitorLatency time.Duration
	// Jitter is the +-fraction applied to modelled latencies.
	Jitter float64
	// Seed makes every experiment deterministic.
	Seed int64
	// Operations and WarmupOps per run (paper: 1,000 measured reads).
	Operations int
	WarmupOps  int
	// Runs to average (paper: 5).
	Runs int
	// ZipfSkew is the default workload skew (paper: 1.1).
	ZipfSkew float64
	// ReconfigPeriod is Agar's (and LFU's statistics) refresh period
	// (paper: 30 s).
	ReconfigPeriod time.Duration
	// Clients is the number of concurrent client threads per YCSB instance
	// (paper: 2).
	Clients int
	// Solver picks Agar's configuration algorithm.
	Solver core.Solver
	// EarlyStop bounds the POPULATE option iteration (the paper's SVI
	// optimisation); zero disables it.
	EarlyStop int
}

// DefaultParams returns the paper's evaluation setup.
func DefaultParams() Params {
	return Params{
		NumObjects:       300,
		ObjectBytes:      9 * 1024,
		PaperObjectBytes: 1 << 20,
		K:                9,
		M:                3,
		RotatePlacement:  false,
		CacheLatency:     20 * time.Millisecond,
		DecodeLatency:    5 * time.Millisecond,
		MonitorLatency:   500 * time.Microsecond,
		Jitter:           0.05,
		Seed:             1,
		Operations:       1000,
		WarmupOps:        1000,
		Runs:             5,
		ZipfSkew:         1.1,
		ReconfigPeriod:   30 * time.Second,
		Clients:          2,
		Solver:           core.SolverPopulate,
		EarlyStop:        128,
	}
}

// Deployment is a loaded multi-region cluster ready for measurement runs.
type Deployment struct {
	Params  Params
	Cluster *backend.Cluster
	Matrix  *geo.LatencyMatrix
}

// NewDeployment builds the cluster and loads the working set.
func NewDeployment(p Params) (*Deployment, error) {
	if p.NumObjects <= 0 || p.ObjectBytes <= 0 || p.K <= 0 {
		return nil, fmt.Errorf("experiments: invalid params")
	}
	codec, err := erasure.New(p.K, p.M)
	if err != nil {
		return nil, err
	}
	matrix := p.Matrix
	if matrix == nil {
		matrix = geo.DefaultMatrix()
	}
	placement := geo.NewRoundRobin(geo.DefaultRegions(), p.RotatePlacement)
	cluster := backend.NewCluster(geo.DefaultRegions(), codec, placement)
	payload := make([]byte, p.ObjectBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	for i := 0; i < p.NumObjects; i++ {
		if err := cluster.PutObject(workload.KeyName(i), payload); err != nil {
			return nil, fmt.Errorf("experiments: load object %d: %w", i, err)
		}
	}
	return &Deployment{Params: p, Cluster: cluster, Matrix: matrix}, nil
}

// ChunkBytes returns the real per-chunk size.
func (d *Deployment) ChunkBytes() int64 {
	return int64(d.Cluster.Codec().ChunkSize(d.Params.ObjectBytes))
}

// PaperChunkBytes returns the chunk size the paper's latency model assumes
// (1 MB objects over k data chunks) — the size bandwidth-capped store
// tiers charge transfer time for, consistent with the modelled latencies.
func (d *Deployment) PaperChunkBytes() int {
	return d.Params.PaperObjectBytes / d.Params.K
}

// SlotsForMB converts a paper-scale cache size in megabytes into chunk
// slots: slots = MB / (paperObject/k). The paper's 10 MB cache "fits ten
// full objects", i.e. 90 chunks.
func (d *Deployment) SlotsForMB(mb float64) int {
	perChunk := float64(d.Params.PaperObjectBytes) / float64(d.Params.K)
	return int(math.Round(mb * (1 << 20) / perChunk))
}

// Env builds a client environment around an explicit sampler. The scenario
// runner threads a chaos-bound sampler through here; pass a fresh
// netsim.NewSampler for plain runs.
func (d *Deployment) Env(sampler *netsim.Sampler) *client.Env {
	return &client.Env{
		Cluster:        d.Cluster,
		Matrix:         d.Matrix,
		Sampler:        sampler,
		CacheLatency:   d.Params.CacheLatency,
		DecodeLatency:  d.Params.DecodeLatency,
		MonitorLatency: d.Params.MonitorLatency,
	}
}

// env builds a fresh client environment with a run-specific sampler.
func (d *Deployment) env(seed int64) *client.Env {
	return d.Env(netsim.NewSampler(d.Matrix, d.Params.Jitter, seed))
}

// StrategyKind enumerates the reading strategies of §V-A.
type StrategyKind int

// Strategy kinds.
const (
	StratBackend StrategyKind = iota + 1
	StratLRU
	StratLFU
	StratAgar
	// StratFixed caches a fixed c chunks per object under a pinned policy
	// that never evicts: the cache freezes on whatever it saw first — the
	// "static cache" baseline the scenario suite compares against.
	StratFixed
)

// Strategy names one evaluated configuration.
type Strategy struct {
	Kind StrategyKind
	// C is the fixed chunks-per-object for LRU/LFU strategies.
	C int
}

// Name renders the paper's strategy labels ("Agar", "LRU-3", "Backend").
func (s Strategy) Name() string {
	switch s.Kind {
	case StratBackend:
		return "Backend"
	case StratLRU:
		return fmt.Sprintf("LRU-%d", s.C)
	case StratLFU:
		return fmt.Sprintf("LFU-%d", s.C)
	case StratFixed:
		return fmt.Sprintf("Fixed-%d", s.C)
	case StratAgar:
		return "Agar"
	default:
		return fmt.Sprintf("strategy(%d)", int(s.Kind))
	}
}

// runSpec is everything one measurement run needs.
type runSpec struct {
	strategy Strategy
	region   geo.RegionID
	cacheMB  float64
	gen      func(seed int64) workload.Generator
	seed     int64
}

// NewReader builds the reader (and Agar node, when the strategy is Agar)
// for one strategy over the given environment. The seed derives the Agar
// region manager's warm-up probe sampler; cacheMB sizes the strategy's
// cache in paper megabytes.
func (d *Deployment) NewReader(strat Strategy, env *client.Env, region geo.RegionID, cacheMB float64, seed int64) (client.Reader, *core.Node, error) {
	slots := d.SlotsForMB(cacheMB)
	cacheBytes := int64(slots) * d.ChunkBytes()
	if cacheBytes <= 0 {
		cacheBytes = 1
	}
	switch strat.Kind {
	case StratLRU, StratLFU, StratFixed:
		if strat.C < 1 || strat.C > d.Params.K {
			return nil, nil, fmt.Errorf("experiments: %s chunk count %d outside [1, %d]", strat.Name(), strat.C, d.Params.K)
		}
	}
	switch strat.Kind {
	case StratBackend:
		return client.NewBackendReader(env, region), nil, nil
	case StratLRU:
		return client.NewFixedReader(env, region, cache.NewLRU(), strat.C, cacheBytes), nil, nil
	case StratLFU:
		return client.NewFixedReader(env, region, cache.NewLFU(), strat.C, cacheBytes), nil, nil
	case StratFixed:
		// The pinned policy reports itself as "pinned"; label the reader to
		// match this strategy's naming.
		return client.NewFixedReader(env, region, cache.NewPinned(), strat.C, cacheBytes).
			WithName(fmt.Sprintf("fixed-%d", strat.C)), nil, nil
	case StratAgar:
		node := core.NewNode(core.NodeParams{
			Region:         region,
			Regions:        d.Cluster.Regions(),
			Placement:      d.Cluster.Placement(),
			K:              d.Params.K,
			M:              d.Params.M,
			CacheBytes:     cacheBytes,
			ChunkBytes:     d.ChunkBytes(),
			ReconfigPeriod: d.Params.ReconfigPeriod,
			CacheLatency:   d.Params.CacheLatency,
			Solver:         d.Params.Solver,
			EarlyStop:      d.Params.EarlyStop,
		})
		// Warm-up latency probes through the same jittered sampler the
		// reads use, as the paper's region manager does.
		sampler := netsim.NewSampler(d.Matrix, d.Params.Jitter, seed+7777)
		node.RegionManager().WarmUp(func(r geo.RegionID) time.Duration {
			return sampler.Chunk(region, r)
		}, 3)
		return client.NewAgarReader(env, region, node), node, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown strategy %v", strat)
	}
}

// runOnce executes a single run and returns its result.
func (d *Deployment) runOnce(spec runSpec) (ycsb.Result, error) {
	env := d.env(spec.seed)
	reader, node, err := d.NewReader(spec.strategy, env, spec.region, spec.cacheMB, spec.seed)
	if err != nil {
		return ycsb.Result{}, err
	}

	return ycsb.Run(ycsb.RunConfig{
		Reader:     reader,
		Generator:  spec.gen(spec.seed),
		Operations: d.Params.Operations,
		WarmupOps:  d.Params.WarmupOps,
		Node:       node,
		Clients:    d.Params.Clients,
	})
}

// runAveraged executes Params.Runs paired runs (same per-run seeds across
// strategies) and averages them.
func (d *Deployment) runAveraged(spec runSpec) (ycsb.Result, error) {
	results := make([]ycsb.Result, 0, d.Params.Runs)
	for run := 0; run < d.Params.Runs; run++ {
		s := spec
		s.seed = d.Params.Seed + int64(run)*1009
		r, err := d.runOnce(s)
		if err != nil {
			return ycsb.Result{}, fmt.Errorf("experiments: %s run %d: %w", spec.strategy.Name(), run, err)
		}
		results = append(results, r)
	}
	return ycsb.Average(results), nil
}

// zipfGen builds the default Zipfian generator factory.
func (d *Deployment) zipfGen(skew float64) func(int64) workload.Generator {
	n := d.Params.NumObjects
	return func(seed int64) workload.Generator { return workload.NewZipfian(n, skew, seed) }
}

// uniformGen builds the uniform generator factory.
func (d *Deployment) uniformGen() func(int64) workload.Generator {
	n := d.Params.NumObjects
	return func(seed int64) workload.Generator { return workload.NewUniform(n, seed) }
}

// Run executes the averaged measurement campaign for one strategy, client
// region and cache size using the deployment's default workload skew. It
// is the entry point the root package benchmarks drive.
func (d *Deployment) Run(strat Strategy, region geo.RegionID, cacheMB float64) (ycsb.Result, error) {
	return d.runAveraged(runSpec{
		strategy: strat,
		region:   region,
		cacheMB:  cacheMB,
		gen:      d.zipfGen(d.Params.ZipfSkew),
	})
}

// Package agar is a caching system for erasure-coded, geo-distributed data,
// reproducing Halalai et al., "Agar: A Caching System for Erasure-Coded
// Data" (ICDCS 2017).
//
// Objects are Reed-Solomon coded into k data and m parity chunks spread
// round-robin over a set of regions. Each region can run an Agar node: a
// request monitor tracks object popularity (EWMA), a region manager probes
// per-region chunk-read latencies, and a cache manager periodically solves
// a multiple-choice knapsack — with the paper's POPULATE/RELAX dynamic
// program in the simulated deployment, exactly in the live one — to decide
// which objects to cache and with how many chunks. Clients
// consult the node before each read and fetch hinted chunks from the local
// cache and the rest from the backend, in parallel.
//
// The package offers two ways to run the system:
//
//   - A simulated deployment (NewCluster): in-process stores with a
//     calibrated wide-area latency model on a virtual clock. This is what
//     the benchmark harness uses to regenerate the paper's figures.
//   - A live deployment (StartLiveCluster): every role served over real
//     TCP/UDP sockets on localhost, with scaled delay injection.
//
// See the examples directory for runnable walkthroughs.
package agar

import (
	"fmt"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
)

// Region identifies a deployment region.
type Region = geo.RegionID

// The paper's six AWS regions.
const (
	Frankfurt = geo.Frankfurt
	Dublin    = geo.Dublin
	NVirginia = geo.NVirginia
	SaoPaulo  = geo.SaoPaulo
	Tokyo     = geo.Tokyo
	Sydney    = geo.Sydney
)

// Regions returns the default six-region topology.
func Regions() []Region { return geo.DefaultRegions() }

// ParseRegion resolves a region name ("frankfurt", "sydney", ...).
func ParseRegion(name string) (Region, error) { return geo.ParseRegion(name) }

// LatencyMatrix models chunk-read latency between regions.
type LatencyMatrix = geo.LatencyMatrix

// DefaultLatencyMatrix returns the calibrated six-region matrix used by the
// evaluation harness.
func DefaultLatencyMatrix() *LatencyMatrix { return geo.DefaultMatrix() }

// TableILatencyMatrix returns a matrix whose Frankfurt row reproduces the
// paper's Table I verbatim.
func TableILatencyMatrix() *LatencyMatrix { return geo.TableIMatrix() }

// config collects the functional options for NewCluster.
type config struct {
	regions        []Region
	k, m           int
	rotate         bool
	matrix         *LatencyMatrix
	jitter         float64
	seed           int64
	cacheLatency   time.Duration
	decodeLatency  time.Duration
	monitorLatency time.Duration
	reconfigPeriod time.Duration
	construction   erasure.Construction
}

// Option customises a cluster.
type Option func(*config)

// WithRegions sets the deployment's regions (default: the paper's six).
func WithRegions(regions ...Region) Option {
	return func(c *config) { c.regions = regions }
}

// WithErasure sets the Reed-Solomon parameters (default 9+3).
func WithErasure(k, m int) Option {
	return func(c *config) { c.k, c.m = k, m }
}

// WithCauchy selects the Cauchy matrix construction (Longhair-style)
// instead of Vandermonde.
func WithCauchy() Option {
	return func(c *config) { c.construction = erasure.Cauchy }
}

// WithRotatingPlacement spreads chunk layouts across objects instead of the
// paper's fixed round-robin.
func WithRotatingPlacement() Option {
	return func(c *config) { c.rotate = true }
}

// WithLatencyMatrix replaces the calibrated latency model.
func WithLatencyMatrix(m *LatencyMatrix) Option {
	return func(c *config) { c.matrix = m }
}

// WithJitter sets the latency jitter fraction (default 0.05).
func WithJitter(f float64) Option {
	return func(c *config) { c.jitter = f }
}

// WithSeed fixes the simulation seed (default 1).
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithCacheLatency sets the modelled local cache access time (default 20 ms).
func WithCacheLatency(d time.Duration) Option {
	return func(c *config) { c.cacheLatency = d }
}

// WithDecodeLatency sets the modelled erasure-decode cost (default 5 ms).
func WithDecodeLatency(d time.Duration) Option {
	return func(c *config) { c.decodeLatency = d }
}

// WithReconfigPeriod sets Agar's reconfiguration period (default 30 s).
func WithReconfigPeriod(d time.Duration) Option {
	return func(c *config) { c.reconfigPeriod = d }
}

// Cluster is a simulated multi-region erasure-coded store with a wide-area
// latency model. It is safe for concurrent use.
type Cluster struct {
	cfg     config
	codec   *erasure.Codec
	backend *backend.Cluster
	matrix  *LatencyMatrix
	sampler *netsim.Sampler
}

// NewCluster builds a simulated deployment.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := config{
		regions:        geo.DefaultRegions(),
		k:              9,
		m:              3,
		jitter:         0.05,
		seed:           1,
		cacheLatency:   20 * time.Millisecond,
		decodeLatency:  5 * time.Millisecond,
		monitorLatency: 500 * time.Microsecond,
		reconfigPeriod: 30 * time.Second,
		construction:   erasure.Vandermonde,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.regions) == 0 {
		return nil, fmt.Errorf("agar: at least one region required")
	}
	codec, err := erasure.NewWith(cfg.k, cfg.m, cfg.construction)
	if err != nil {
		return nil, fmt.Errorf("agar: %w", err)
	}
	matrix := cfg.matrix
	if matrix == nil {
		matrix = geo.DefaultMatrix()
	}
	placement := geo.NewRoundRobin(cfg.regions, cfg.rotate)
	return &Cluster{
		cfg:     cfg,
		codec:   codec,
		backend: backend.NewCluster(cfg.regions, codec, placement),
		matrix:  matrix,
		sampler: netsim.NewSampler(matrix, cfg.jitter, cfg.seed),
	}, nil
}

// Put encodes and stores an object across the regions.
func (c *Cluster) Put(key string, data []byte) error {
	return c.backend.PutObject(key, data)
}

// Get reads an object directly from the backend (no caching layer).
func (c *Cluster) Get(key string) ([]byte, error) {
	return c.backend.GetObject(key)
}

// K returns the data-chunk count.
func (c *Cluster) K() int { return c.codec.K() }

// M returns the parity-chunk count.
func (c *Cluster) M() int { return c.codec.M() }

// ChunkSize returns the per-chunk size for an object of n bytes.
func (c *Cluster) ChunkSize(n int) int { return c.codec.ChunkSize(n) }

// SetRegionDown injects (or clears) a full region failure.
func (c *Cluster) SetRegionDown(r Region, down bool) {
	if s := c.backend.Store(r); s != nil {
		s.SetDown(down)
	}
}

// TotalBytes reports the bytes stored across all regions, redundancy
// included.
func (c *Cluster) TotalBytes() int64 { return c.backend.TotalBytes() }

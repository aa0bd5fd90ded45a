package live

import (
	"sync/atomic"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/trace"
	"github.com/agardist/agar/internal/wire"
)

// ServerOptions configures a cache or store server beyond its address.
// The zero value is the default: a private metrics registry, no region
// label.
type ServerOptions struct {
	// Registry receives the server's metrics families. Nil creates a
	// private registry: metrics are still collected but no /metrics
	// endpoint sees them unless the caller serves Registry.Handler
	// somewhere.
	Registry *metrics.Registry
	// Region labels this server's metric families — one store server per
	// region shares a cluster registry without colliding. Empty is fine
	// for standalone deployments.
	Region string
	// Recorder, when non-nil, is the server's flight recorder: every
	// finished op is offered to it (slowest and errored requests are
	// retained per opcode, served at /debug/traces). Nil disables the
	// recorder and — together with an untraced request stream — keeps
	// time.Now off the hot path entirely, matching the pre-recorder
	// baseline the paired benchmarks pin. Deployed servers (the cluster,
	// the server binaries) always pass one.
	Recorder *trace.Recorder
	// Versions is the cache server's per-key version-floor table: versioned
	// mutations are admitted against it, and digest KeyVers observed into it
	// drop the cached chunks an invalidation outdated. Nil creates a private
	// table; the cluster passes a shared one so tests can read the floors.
	Versions *coherence.VersionTable
}

// serverMetrics is one server's instrumentation: pre-interned per-opcode
// latency histogram children (no per-op allocation or lock on the hot
// path) plus the versioned write-path counters. A nil *serverMetrics
// disables hot-path timing entirely — the paired-benchmark baseline.
type serverMetrics struct {
	queueWait map[string]*metrics.Histogram
	exec      map[string]*metrics.Histogram
	qwOther   *metrics.Histogram
	exOther   *metrics.Histogram

	// Versioned write-path instrumentation (nil on servers that never see
	// versioned traffic is fine — the helpers are nil-safe).
	staleRejects  *metrics.Counter
	invalidations *metrics.Counter
	versionLag    *metrics.Gauge
}

// staleReject accounts one mutation refused by a version floor.
func (m *serverMetrics) staleReject() {
	if m != nil && m.staleRejects != nil {
		m.staleRejects.Inc()
	}
}

// invalidated accounts keys whose cached chunks were dropped because a
// newer write version arrived.
func (m *serverMetrics) invalidated(keys int) {
	if m != nil && m.invalidations != nil && keys > 0 {
		m.invalidations.Add(int64(keys))
	}
}

// observeVersionLag records the wall-clock age of the newest write version
// a digest just delivered — the cross-region staleness gauge.
func (m *serverMetrics) observeVersionLag(ms int64) {
	if m != nil && m.versionLag != nil {
		if ms < 0 {
			ms = 0
		}
		m.versionLag.Set(ms)
	}
}

// observe records one op's execution time, and a queue wait of 0 (ops run
// as soon as they are decoded); traceID (empty for untraced requests) pins
// a bucket exemplar on the execute histogram, so a high-latency bucket
// names a concrete trace to look up. Safe on a nil receiver
// (uninstrumented baseline).
func (m *serverMetrics) observe(op string, exec time.Duration, traceID string) {
	if m == nil {
		return
	}
	qh, ok := m.queueWait[op]
	if !ok {
		qh = m.qwOther
	}
	eh, ok := m.exec[op]
	if !ok {
		eh = m.exOther
	}
	qh.ObserveDuration(0)
	eh.ObserveDurationExemplar(exec, traceID)
}

// internOps pre-interns the queue-wait and execute histogram children for
// a server's known opcodes plus the "other" fallback.
func (m *serverMetrics) internOps(reg *metrics.Registry, server, region string, ops []string) {
	qw := reg.NewHistogramVec(metrics.NameServerOpQueueWait,
		"Time a decoded op waited before executing; always 0, as every op runs on its connection's goroutine as soon as it is decoded.",
		metrics.DefBuckets, "server", "region", "op")
	ex := reg.NewHistogramVec(metrics.NameServerOpExecute,
		"Handler execution time per op.",
		metrics.DefBuckets, "server", "region", "op")
	m.queueWait = make(map[string]*metrics.Histogram, len(ops))
	m.exec = make(map[string]*metrics.Histogram, len(ops))
	for _, op := range ops {
		m.queueWait[op] = qw.With(server, region, op)
		m.exec[op] = ex.With(server, region, op)
	}
	m.qwOther = qw.With(server, region, "other")
	m.exOther = ex.With(server, region, "other")
}

// newCacheServerMetrics registers a cache server's families: per-opcode
// latency histograms, function-backed counters and gauges over the cache's
// own shard atomics, the in-flight request gauge, and — when the server
// speaks the cooperative mesh — the coop table's counters and digest age.
func newCacheServerMetrics(reg *metrics.Registry, region string, c *cache.Cache, table *coop.Table, depth *atomic.Int64) *serverMetrics {
	m := &serverMetrics{}
	m.internOps(reg, "cache", region, []string{
		wire.OpMGet, wire.OpMPut, wire.OpDelObj, wire.OpDigest,
	})

	stat := func(sel func(cache.Stats) int64) func() int64 {
		return func() int64 { return sel(c.Stats()) }
	}
	// funcFamily is one function-backed family: a counter, or a gauge.
	type funcFamily struct {
		counter    bool
		name, help string
		read       func() int64
	}
	funcs := []funcFamily{
		{true, metrics.NameCacheGets, "Chunk lookups.", stat(func(s cache.Stats) int64 { return s.Gets })},
		{true, metrics.NameCacheHits, "Chunk lookups that found the chunk.", stat(func(s cache.Stats) int64 { return s.Hits })},
		{true, metrics.NameCacheSets, "Successful inserts, including overwrites.", stat(func(s cache.Stats) int64 { return s.Sets })},
		{true, metrics.NameCacheEvictions, "Entries evicted to make room.", stat(func(s cache.Stats) int64 { return s.Evictions })},
		{true, metrics.NameCacheAdmissionRejects, "Inserts dropped by the admission filter.", stat(func(s cache.Stats) int64 { return s.AdmissionRejects })},
		{true, metrics.NameCacheFullRejects, "Inserts refused by a full shard whose policy declined eviction.", stat(func(s cache.Stats) int64 { return s.FullRejects })},
		{false, metrics.NameCacheUsedBytes, "Resident bytes.", c.Used},
		{false, metrics.NameCacheCapacityBytes, "Configured capacity in bytes.", c.Capacity},
		{false, metrics.NameCacheShards, "Lock-stripe shard count.", func() int64 { return int64(c.ShardCount()) }},
	}
	if table != nil {
		funcs = append(funcs, []funcFamily{
			{true, metrics.NameCoopPeerHits, "Chunks served to foreign-region peer readers.",
				func() int64 { h, _ := table.PeerReads(); return h }},
			{true, metrics.NameCoopPeerMisses, "Advertised-but-gone chunks peer readers asked for.",
				func() int64 { _, m := table.PeerReads(); return m }},
			{true, metrics.NameCoopDigests, "Digest frames applied.",
				func() int64 { a, _ := table.Applied(); return a }},
			{true, metrics.NameCoopDigestsStale, "Digest frames dropped as stale.",
				func() int64 { _, s := table.Applied(); return s }},
			{true, metrics.NameCoopDigestDeltas, "Applied digest frames that were deltas.", table.Deltas},
			{false, metrics.NameCoopDigestAgeMS,
				"Age of the least recently refreshed peer mirror in milliseconds (-1 before any digest).",
				func() int64 {
					if age, ok := table.StalestAge(); ok {
						return int64(age / time.Millisecond)
					}
					return -1
				}},
		}...)
	}
	for _, f := range funcs {
		read := f.read
		get := func() float64 { return float64(read()) }
		if f.counter {
			reg.NewCounterFuncVec(f.name, f.help, "server", "region").Bind(get, "cache", region)
		} else {
			reg.NewGaugeFuncVec(f.name, f.help, "server", "region").Bind(get, "cache", region)
		}
	}
	bindDepth(reg, "cache", region, depth)

	m.staleRejects = reg.NewCounterVec(metrics.NameCoherenceStaleRejects,
		"Versioned mutations refused because a newer version already holds the key.",
		"server", "region").With("cache", region)
	m.invalidations = reg.NewCounterVec(metrics.NameCoherenceInvalidations,
		"Keys whose cached chunks were dropped because a newer write version arrived.",
		"server", "region").With("cache", region)
	m.versionLag = reg.NewGaugeVec(metrics.NameCoherenceVersionLagMS,
		"Wall-clock age in milliseconds of the newest write version the last digest delivered.",
		"server", "region").With("cache", region)
	return m
}

// newStoreServerMetrics registers a store server's families: per-opcode
// latency histograms plus chunk/byte gauges and the in-flight request gauge.
func newStoreServerMetrics(reg *metrics.Registry, region string, st *backend.Store, depth *atomic.Int64) *serverMetrics {
	m := &serverMetrics{}
	m.internOps(reg, "store", region, []string{wire.OpPut, wire.OpMGet})
	m.staleRejects = reg.NewCounterVec(metrics.NameCoherenceStaleRejects,
		"Versioned mutations refused because a newer version already holds the key.",
		"server", "region").With("store", region)
	reg.NewGaugeFuncVec(metrics.NameStoreChunks, "Chunk objects persisted in this region's bucket.", "server", "region").
		Bind(func() float64 { return float64(st.Len()) }, "store", region)
	reg.NewGaugeFuncVec(metrics.NameStoreBytes, "Payload bytes persisted in this region's bucket.", "server", "region").
		Bind(func() float64 { return float64(st.Bytes()) }, "store", region)
	bindDepth(reg, "store", region, depth)
	return m
}

// bindDepth exports the server's in-flight request gauge.
func bindDepth(reg *metrics.Registry, server, region string, depth *atomic.Int64) {
	reg.NewGaugeFuncVec(metrics.NameServerQueueDepth,
		"Requests decoded and not yet answered, across all connections.", "server", "region").
		Bind(func() float64 { return float64(depth.Load()) }, server, region)
}

// bindReconfigMetrics exports the node's reconfigurations into the cluster
// registry: every run lands in the duration histogram as it completes, and
// the gauges read the latest run at gather time.
func (c *Cluster) bindReconfigMetrics() {
	manager := c.node.Manager()
	seconds := c.reg.NewHistogramVec(metrics.NameReconfigSeconds,
		"Duration of one cache reconfiguration in seconds: period close, option generation, solve, publish.",
		nil, "solver")
	manager.OnReconfigure(func(run core.ReconfigRun) {
		seconds.With(run.Solver.String()).ObserveDuration(run.Duration)
	})
	c.reg.NewGaugeFunc(metrics.NameReconfigValue,
		"Knapsack value (popularity-weighted milliseconds saved) of the configuration in force.",
		func() float64 { return manager.LastRun().Value })
	c.reg.NewGaugeFunc(metrics.NameReconfigConfiguredChunks,
		"Chunk slots the configuration in force assigns.",
		func() float64 { return float64(manager.LastRun().Weight) })
	c.reg.NewGaugeFunc(metrics.NameReconfigMovedKeys,
		"Objects whose configured chunks changed in the latest reconfiguration.",
		func() float64 { return float64(manager.LastRun().MovedKeys) })
}

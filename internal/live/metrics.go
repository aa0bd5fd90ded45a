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
// The zero value is the default: shard dispatch, a private metrics
// registry, no region label.
type ServerOptions struct {
	// Dispatch selects the scheduling mode; the zero value is DispatchShard.
	Dispatch Dispatch
	// Registry receives the server's metrics families. Nil creates a
	// private registry: metrics are still collected (the wire stats op
	// reads them) but no /metrics endpoint sees them unless the caller
	// serves Registry.Handler somewhere.
	Registry *metrics.Registry
	// Region labels this server's metric families — one store server per
	// region shares a cluster registry without colliding. Empty is fine
	// for standalone deployments.
	Region string
	// SplitMinBytes is the size-aware batch-split threshold for shard
	// dispatch: a multi-shard mget/mput whose body weighs less than this
	// many bytes (mput by its declared sizes, mget by chunk count times
	// the cache's mean entry size) routes whole to its first chunk's
	// shard worker instead of fanning out — small batches lose more to
	// queue hops and the merge than parallel shard work buys back. Zero
	// (the default) always splits, the legacy behaviour, which also keeps
	// strict per-connection ordering between a batch and single-chunk ops
	// on its other shards; a positive threshold trades that ordering for
	// throughput on small batches. Store servers never split regardless.
	SplitMinBytes int
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

// statSource maps one legacy wire-level OpStats key onto the registry
// child that backs it. The stats op and the /metrics exposition read the
// same children, so the two surfaces can never disagree.
type statSource struct {
	key  string
	read func() (int64, bool) // ok=false omits the key (e.g. digest age before any digest)
}

// serverMetrics is one server's instrumentation: pre-interned per-opcode
// latency histogram children (no per-op allocation or lock on the hot
// path) plus the stat sources the wire stats op is built from. A nil
// *serverMetrics disables hot-path timing entirely — the paired-benchmark
// baseline.
type serverMetrics struct {
	queueWait map[string]*metrics.Histogram
	exec      map[string]*metrics.Histogram
	qwOther   *metrics.Histogram
	exOther   *metrics.Histogram
	stats     []statSource

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

// observe records one op's queue wait and execution time; traceID (empty
// for untraced requests) pins a bucket exemplar on the execute histogram,
// so a high-latency bucket names a concrete trace to look up. Safe on a
// nil receiver (uninstrumented baseline).
func (m *serverMetrics) observe(op string, queue, exec time.Duration, traceID string) {
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
	qh.ObserveDuration(queue)
	eh.ObserveDurationExemplar(exec, traceID)
}

// statsMap builds the wire-level OpStats payload from the registry-backed
// sources, preserving the historical key names byte for byte.
func (m *serverMetrics) statsMap() map[string]int64 {
	out := make(map[string]int64, len(m.stats))
	for _, s := range m.stats {
		if v, ok := s.read(); ok {
			out[s.key] = v
		}
	}
	return out
}

// always wraps an int64 reader as an always-present stat source value.
func always(fn func() int64) func() (int64, bool) {
	return func() (int64, bool) { return fn(), true }
}

// internOps pre-interns the queue-wait and execute histogram children for
// a server's known opcodes plus the "other" fallback.
func (m *serverMetrics) internOps(reg *metrics.Registry, server, region string, ops []string) {
	qw := reg.NewHistogramVec(metrics.NameServerOpQueueWait,
		"Time a decoded op waited on a shard-dispatch queue before executing (0 for inline fast-path ops).",
		metrics.DefBuckets, "server", "region", "op")
	ex := reg.NewHistogramVec(metrics.NameServerOpExecute,
		"Handler execution time per op (split-batch parts observe per part).",
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
// own shard atomics, the dispatch queue depth gauge, and — when the server
// speaks the cooperative mesh — the coop table's counters and digest age.
func newCacheServerMetrics(reg *metrics.Registry, region string, c *cache.Cache, table *coop.Table, gauge *atomic.Int64) *serverMetrics {
	m := &serverMetrics{}
	m.internOps(reg, "cache", region, []string{
		wire.OpGet, wire.OpPut, wire.OpMGet, wire.OpMPut, wire.OpDelete,
		wire.OpDelObj, wire.OpIndices, wire.OpSnapshot, wire.OpDigest, wire.OpStats,
	})

	stat := func(sel func(cache.Stats) int64) func() int64 {
		return func() int64 { return sel(c.Stats()) }
	}
	counters := []struct {
		name, help, key string
		read            func() int64
	}{
		{metrics.NameCacheGets, "Chunk lookups.", "gets", stat(func(s cache.Stats) int64 { return s.Gets })},
		{metrics.NameCacheHits, "Chunk lookups that found the chunk.", "hits", stat(func(s cache.Stats) int64 { return s.Hits })},
		{metrics.NameCacheSets, "Successful inserts, including overwrites.", "sets", stat(func(s cache.Stats) int64 { return s.Sets })},
		{metrics.NameCacheEvictions, "Entries evicted to make room.", "evictions", stat(func(s cache.Stats) int64 { return s.Evictions })},
		{metrics.NameCacheAdmissionRejects, "Inserts dropped by the admission filter.", "admission_rejects", stat(func(s cache.Stats) int64 { return s.AdmissionRejects })},
		{metrics.NameCacheFullRejects, "Inserts refused by a full shard whose policy declined eviction.", "full_rejects", stat(func(s cache.Stats) int64 { return s.FullRejects })},
	}
	for _, cnt := range counters {
		cnt := cnt
		reg.NewCounterFuncVec(cnt.name, cnt.help, "server", "region").
			Bind(func() float64 { return float64(cnt.read()) }, "cache", region)
		m.stats = append(m.stats, statSource{cnt.key, always(cnt.read)})
	}
	m.stats = append(m.stats, statSource{"rejected", always(func() int64 { return c.Stats().Rejected() })})

	gauges := []struct {
		name, help, key string
		read            func() int64
	}{
		{metrics.NameCacheUsedBytes, "Resident bytes.", "used", c.Used},
		{metrics.NameCacheCapacityBytes, "Configured capacity in bytes.", "capacity", c.Capacity},
		{metrics.NameCacheShards, "Lock-stripe shard count.", "shards", func() int64 { return int64(c.ShardCount()) }},
		{metrics.NameServerQueueDepth, "Shard-dispatch tasks enqueued or executing (0 under conn dispatch).", "dispatch_queue_depth", gauge.Load},
	}
	for _, g := range gauges {
		g := g
		reg.NewGaugeFuncVec(g.name, g.help, "server", "region").
			Bind(func() float64 { return float64(g.read()) }, "cache", region)
		m.stats = append(m.stats, statSource{g.key, always(g.read)})
	}

	if table != nil {
		coopCounters := []struct {
			name, help, key string
			read            func() int64
		}{
			{metrics.NameCoopPeerHits, "Chunks served to foreign-region peer readers.", "peer_hits",
				func() int64 { h, _ := table.PeerReads(); return h }},
			{metrics.NameCoopPeerMisses, "Advertised-but-gone chunks peer readers asked for.", "peer_misses",
				func() int64 { _, m := table.PeerReads(); return m }},
			{metrics.NameCoopDigests, "Digest frames applied.", "digests",
				func() int64 { a, _ := table.Applied(); return a }},
			{metrics.NameCoopDigestsStale, "Digest frames dropped as stale.", "digests_stale",
				func() int64 { _, s := table.Applied(); return s }},
			{metrics.NameCoopDigestDeltas, "Applied digest frames that were deltas.", "digest_deltas", table.Deltas},
		}
		for _, cnt := range coopCounters {
			cnt := cnt
			reg.NewCounterFuncVec(cnt.name, cnt.help, "server", "region").
				Bind(func() float64 { return float64(cnt.read()) }, "cache", region)
			m.stats = append(m.stats, statSource{cnt.key, always(cnt.read)})
		}
		age := func() (int64, bool) {
			if age, ok := table.StalestAge(); ok {
				return int64(age / time.Millisecond), true
			}
			return 0, false
		}
		reg.NewGaugeFuncVec(metrics.NameCoopDigestAgeMS,
			"Age of the least recently refreshed peer mirror in milliseconds (-1 before any digest).",
			"server", "region").
			Bind(func() float64 {
				if v, ok := age(); ok {
					return float64(v)
				}
				return -1
			}, "cache", region)
		m.stats = append(m.stats, statSource{"digest_age_ms", age})
	}

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
// latency histograms plus chunk/byte gauges and the dispatch queue depth.
func newStoreServerMetrics(reg *metrics.Registry, region string, st *backend.Store, gauge *atomic.Int64) *serverMetrics {
	m := &serverMetrics{}
	m.internOps(reg, "store", region, []string{
		wire.OpGet, wire.OpPut, wire.OpMGet, wire.OpDelete, wire.OpDelObj, wire.OpStats,
	})
	m.staleRejects = reg.NewCounterVec(metrics.NameCoherenceStaleRejects,
		"Versioned mutations refused because a newer version already holds the key.",
		"server", "region").With("store", region)
	gauges := []struct {
		name, help, key string
		read            func() int64
	}{
		{metrics.NameStoreChunks, "Chunk objects persisted in this region's bucket.", "chunks",
			func() int64 { return int64(st.Len()) }},
		{metrics.NameStoreBytes, "Payload bytes persisted in this region's bucket.", "bytes", st.Bytes},
		{metrics.NameServerQueueDepth, "Shard-dispatch tasks enqueued or executing (0 under conn dispatch).", "dispatch_queue_depth", gauge.Load},
	}
	for _, g := range gauges {
		g := g
		reg.NewGaugeFuncVec(g.name, g.help, "server", "region").
			Bind(func() float64 { return float64(g.read()) }, "store", region)
		m.stats = append(m.stats, statSource{g.key, always(g.read)})
	}
	return m
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

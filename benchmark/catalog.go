package main

// metricDef names one reported metric. The catalog is what BENCHMARK.json's
// end_to_end and per_layer lists are checked against (TestManifestMatches):
// every metric listed here is emitted, by name and with its unit, for every
// workload.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd is what a Frankfurt client of the system sees, from the untraced
// invocation. Every bound is the largest the contract allows: on the seed
// sandbox the spread between ten runs reaches 10–18 % of the median for the
// CPU-bound metrics (README, "Spread"), and a tighter bound would reject
// changes for what the host did.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"reconfig_s", "s", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_mean_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"peak_ops_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer is the traced invocation's budget: one or more numbers per layer
// a read or a write crosses.
var perLayer = []metricDef{
	// generator: validity only
	{Name: "gen.start_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.start_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.achieved_ops_s", Unit: "ops/s", Better: "higher"},
	// live client, from the spans ReadDetailed returns
	{Name: "live.read.p50_us", Unit: "us", Better: "lower"},
	{Name: "live.read.mean_us", Unit: "us", Better: "lower"},
	{Name: "live.read.p99_us", Unit: "us", Better: "lower"},
	{Name: "live.read.service_us", Unit: "us", Better: "lower"},
	{Name: "live.read.hint_us", Unit: "us", Better: "lower"},
	{Name: "live.read.fetch_us", Unit: "us", Better: "lower"},
	{Name: "live.read.decode_us", Unit: "us", Better: "lower"},
	{Name: "live.read.self_us", Unit: "us", Better: "lower"},
	{Name: "live.read.exchanges_per_read", Unit: "count", Better: "lower"},
	{Name: "live.read.cache_chunks_per_read", Unit: "count", Better: "higher"},
	{Name: "live.read.stale_drops", Unit: "count", Better: "lower"},
	{Name: "live.write.p50_us", Unit: "us", Better: "lower"},
	{Name: "live.write.p99_us", Unit: "us", Better: "lower"},
	{Name: "live.populate.dropped", Unit: "count", Better: "lower"},
	{Name: "live.populate.depth_max", Unit: "count", Better: "lower"},
	// live servers
	{Name: "live.server.queue_wait_us.hint", Unit: "us", Better: "lower"},
	{Name: "live.server.queue_wait_us.cache_mget", Unit: "us", Better: "lower"},
	{Name: "live.server.queue_wait_us.store_mget", Unit: "us", Better: "lower"},
	{Name: "live.server.queue_wait_us.store_put", Unit: "us", Better: "lower"},
	{Name: "live.server.exec_us.hint", Unit: "us", Better: "lower"},
	{Name: "live.server.exec_us.cache_mget", Unit: "us", Better: "lower"},
	{Name: "live.server.exec_us.store_mget", Unit: "us", Better: "lower"},
	{Name: "live.server.exec_us.store_put", Unit: "us", Better: "lower"},
	{Name: "live.server.queue_depth_max", Unit: "count", Better: "lower"},
	// live round trips, quiescent
	{Name: "live.hint_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.cache_mget_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.store_mget_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.store_put_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.cache_invalidate_rtt_us", Unit: "us", Better: "lower"},
	// wire
	{Name: "wire.header_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.header_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	// erasure
	{Name: "erasure.encode_us", Unit: "us", Better: "lower"},
	{Name: "erasure.decode_us", Unit: "us", Better: "lower"},
	{Name: "erasure.decode_mb_s", Unit: "MB/s", Better: "higher"},
	// cache
	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.admission_rejects", Unit: "count", Better: "lower"},
	// core
	{Name: "core.hint_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reconfigure_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reconfig_under_load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.configured_objects", Unit: "count", Better: "higher"},
	{Name: "core.configured_chunks", Unit: "count", Better: "higher"},
	// backend and store
	{Name: "backend.get_multi_us", Unit: "us", Better: "lower"},
	{Name: "backend.put_ver_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	// hlc and coherence
	{Name: "hlc.now_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.table_len", Unit: "count", Better: "lower"},
	// process
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_mb_peak", Unit: "MiB", Better: "lower"},
	{Name: "proc.goroutines_max", Unit: "count", Better: "lower"},
	// tracing
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// unitOf panics on a name outside the catalog: emitting an undeclared
// metric is a bug in the benchmark, not a condition of the run.
func unitOf(name string) string {
	m, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	return m.Unit
}

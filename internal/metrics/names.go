package metrics

// The metric-name catalog: every family the system registers, in one
// place. Registration sites use these constants, and the docs gate
// (TestDocsMetricsReference) requires each to be documented in
// docs/METRICS.md — the same idiom the WIRE.md gate uses for opcodes, so a
// new metric without documentation fails tier-1 tests.
const (
	// Framed-TCP servers (cache-server, backend-server) — labels
	// {server, region, op}; the two histograms split one op's life into
	// its shard-dispatch queue wait and its handler execution.
	NameServerOpQueueWait = "agar_server_op_queue_wait_seconds"
	NameServerOpExecute   = "agar_server_op_execute_seconds"
	NameServerQueueDepth  = "agar_server_dispatch_queue_depth"

	// Cache engine counters and gauges — function-backed over the cache's
	// own shard atomics; labels {server, region}.
	NameCacheGets             = "agar_cache_gets_total"
	NameCacheHits             = "agar_cache_hits_total"
	NameCacheSets             = "agar_cache_sets_total"
	NameCacheEvictions        = "agar_cache_evictions_total"
	NameCacheAdmissionRejects = "agar_cache_admission_rejects_total"
	NameCacheFullRejects      = "agar_cache_full_rejects_total"
	NameCacheUsedBytes        = "agar_cache_used_bytes"
	NameCacheCapacityBytes    = "agar_cache_capacity_bytes"
	NameCacheShards           = "agar_cache_shards"

	// Backend store servers — labels {server, region}.
	NameStoreChunks = "agar_store_chunks"
	NameStoreBytes  = "agar_store_bytes"

	// Cooperative mesh — labels {server, region}; the RTT histogram is
	// client-side, labelled {peer}.
	NameCoopPeerHits     = "agar_coop_peer_hits_total"
	NameCoopPeerMisses   = "agar_coop_peer_misses_total"
	NameCoopDigests      = "agar_coop_digests_total"
	NameCoopDigestsStale = "agar_coop_digests_stale_total"
	NameCoopDigestDeltas = "agar_coop_digest_deltas_total"
	NameCoopDigestAgeMS  = "agar_coop_digest_age_ms"
	NameCoopPeerRTTMS    = "agar_coop_peer_rtt_ms"

	// Blob-store adapters (store.WithMetrics) — labels {adapter, op}.
	NameBlobOpSeconds = "agar_blob_op_seconds"

	// Blob gateway HTTP surface (store.NewGatewayWith) — request counts
	// labelled {op, code} plus the instantaneous in-flight gauge.
	NameHTTPRequests = "agar_http_requests_total"
	NameHTTPInFlight = "agar_http_in_flight"

	// Client read path: the async cache-population pool's backpressure.
	NamePopulationQueueDepth = "agar_client_population_queue_depth"
	NamePopulationDropped    = "agar_client_population_dropped_total"

	// Cache reconfiguration (core.CacheManager.LastRun), bound by the live
	// cluster: one histogram observation per run labelled {solver}, and
	// gauges describing the configuration the latest run put in force.
	NameReconfigSeconds          = "agar_reconfig_seconds"
	NameReconfigValue            = "agar_reconfig_value"
	NameReconfigConfiguredChunks = "agar_reconfig_configured_chunks"
	NameReconfigMovedKeys        = "agar_reconfig_moved_keys"

	// Versioned write path and cross-region coherence — cache-server
	// families labelled {server, region}, client families labelled
	// {region}. Version lag is the wall-clock age of the newest write
	// version a digest delivered; stale rejects count mutations refused by
	// a version floor; invalidations count keys whose cached chunks were
	// dropped because a digest raised their floor; stale drops count
	// cache/peer chunks the client discarded as below its read target; the
	// write histogram is the client-observed end-to-end versioned write.
	NameCoherenceVersionLagMS  = "agar_coherence_version_lag_ms"
	NameCoherenceInvalidations = "agar_coherence_invalidations_total"
	NameCoherenceStaleRejects  = "agar_coherence_stale_rejects_total"
	NameClientStaleDrops       = "agar_client_stale_chunk_drops_total"
	NameClientWriteSeconds     = "agar_client_write_seconds"

	// Process-level families every binary's debug mux exposes
	// (RegisterGoRuntime / MountDebug): a constant-1 build identity gauge
	// labelled {go_version, module}, and function-backed Go runtime health
	// read at gather time.
	NameBuildInfo        = "agar_build_info"
	NameGoGoroutines     = "agar_go_goroutines"
	NameGoHeapAllocBytes = "agar_go_heap_alloc_bytes"
	NameGoGCPauseSeconds = "agar_go_gc_pause_seconds_total"
)

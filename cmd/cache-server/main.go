// Command cache-server runs a standalone chunk cache over TCP with a
// memcached-like get/set/delete surface (single-chunk and batched mget/mput
// round trips), a pluggable eviction policy, a sharded store for concurrent
// client fan-in, and an optional cooperative-cache mesh: with -peers set,
// the server periodically advertises its residency digest to peer cache
// servers and mirrors the digests it receives, reporting peer_hits,
// peer_misses and digest_age_ms through its stats op.
//
// Each connection's goroutine decodes, executes and answers its own frames
// in order; concurrency comes from many connections over the sharded store.
//
// Usage:
//
//	cache-server -addr 127.0.0.1:7101 -capacity 10485760 -policy lru -shards 8
//	cache-server -addr 10.0.0.5:7101 -region frankfurt \
//	             -peers dublin=10.0.0.7:7101@25ms -digest-period 1s
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7101", "listen address")
		capacity = flag.Int64("capacity", 10<<20, "cache capacity in bytes")
		policy   = flag.String("policy", "lru", "eviction policy: lru|lfu|pinned")
		shards   = flag.Int("shards", 8, "cache shards (rounded up to a power of two; 1 = single global lock)")
		region   = flag.String("region", "", "this cache's region name (required with -peers)")
		peers    = flag.String("peers", "", "cooperative peers: region=host:port@latency[,...]")
		digest   = flag.Duration("digest-period", time.Second, "how often residency digests push to peers")
		metricsA = flag.String("metrics-addr", "", "serve Prometheus-format /metrics on this address (off when empty)")
	)
	flag.Parse()

	var factory func() cache.Policy
	switch *policy {
	case "lru":
		factory = func() cache.Policy { return cache.NewLRU() }
	case "lfu":
		factory = func() cache.Policy { return cache.NewLFU() }
	case "pinned":
		factory = func() cache.Policy { return cache.NewPinned() }
	default:
		fatalf("unknown policy %q", *policy)
	}
	if *shards < 1 {
		fatalf("-shards must be at least 1")
	}
	peerSpecs, err := live.ParsePeers(*peers)
	if err != nil {
		fatalf("%v", err)
	}
	if len(peerSpecs) > 0 && *region == "" {
		fatalf("-peers needs -region so digests carry this cache's identity")
	}

	store := cache.NewSharded(*capacity, *shards, factory)
	table := coop.NewTable()
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder()
	srv, err := live.NewCacheServerOpts(*addr, store, table, live.ServerOptions{
		Registry: reg, Region: *region, Recorder: rec,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("cache-server: policy=%s capacity=%d shards=%d listening on %s\n",
		*policy, *capacity, store.ShardCount(), srv.Addr())
	metricsSrv := serveMetrics(*metricsA, reg, rec)

	var adv *coop.Advertiser
	var peerConns []*live.RemoteCache
	if len(peerSpecs) > 0 {
		adv = coop.NewAdvertiser(*region, store, *digest)
		for _, p := range peerSpecs {
			rc := live.NewRemoteCache(p.Addr)
			peerConns = append(peerConns, rc)
			adv.AddTarget(p.Region.String(), rc)
			fmt.Printf("cache-server: peering with %s at %s (%v)\n", p.Region, p.Addr, p.Latency)
		}
		adv.Start()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("cache-server: shutting down")
	if adv != nil {
		adv.Stop()
	}
	for _, rc := range peerConns {
		rc.Close()
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	srv.Close()
}

// serveMetrics mounts the full debug surface — /metrics, the
// /debug/traces flight recorder, the /debug/health readiness evaluator,
// and the pprof handlers — when addr is set; returns nil (disabled) when
// it is empty.
func serveMetrics(addr string, reg *metrics.Registry, rec *trace.Recorder) *http.Server {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("metrics listen %s: %v", addr, err)
	}
	mux := http.NewServeMux()
	health := monitor.NewRegistryHealth("cache-server", reg, monitor.DefaultServerRules())
	metrics.MountDebug(mux, reg, rec, health)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("cache-server: metrics on http://%s/metrics, traces on /debug/traces, health on /debug/health, profiles on /debug/pprof/\n", ln.Addr())
	return srv
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cache-server: "+format+"\n", args...)
	os.Exit(1)
}

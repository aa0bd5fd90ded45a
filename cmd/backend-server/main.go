// Command backend-server runs one region's chunk store over TCP — the
// stand-in for the paper's per-region S3 bucket. Chunk persistence is
// pluggable: the default in-memory bucket, an on-disk object layout that
// survives restarts, or a remote S3-style blob gateway (blob-server) the
// region proxies to.
//
// Usage:
//
//	backend-server -region frankfurt -addr 127.0.0.1:7001
//	backend-server -region frankfurt -store disk -dir /var/lib/agar/frankfurt
//	backend-server -region frankfurt -store remote -blob-addr 127.0.0.1:7201
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/store"
	"github.com/agardist/agar/internal/trace"
)

func main() {
	var (
		region   = flag.String("region", "frankfurt", "region this store serves")
		addr     = flag.String("addr", "127.0.0.1:7001", "listen address")
		kind     = flag.String("store", "mem", "chunk persistence: mem|disk|remote")
		dir      = flag.String("dir", "", "disk store root directory (required with -store disk)")
		blobAddr = flag.String("blob-addr", "", "blob gateway address (required with -store remote)")
		metricsA = flag.String("metrics-addr", "", "serve Prometheus-format /metrics on this address (off when empty)")
	)
	flag.Parse()

	r, err := geo.ParseRegion(*region)
	if err != nil {
		fatalf("%v", err)
	}
	blob, err := store.Open(store.Config{Kind: *kind, Dir: *dir, Addr: *blobAddr})
	if err != nil {
		fatalf("%v", err)
	}
	reg := metrics.NewRegistry()
	blob = store.WithMetrics(blob, reg, *kind)
	st := backend.NewStoreOn(r, blob)
	rec := trace.NewRecorder()
	srv, err := live.NewStoreServerOpts(*addr, st, live.ServerOptions{
		Registry: reg, Region: r.String(), Recorder: rec,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("backend-server: region=%s store=%s listening on %s\n", r, *kind, srv.Addr())
	metricsSrv := serveMetrics(*metricsA, reg, rec)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("backend-server: shutting down")
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	srv.Close()
	blob.Close()
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
	health := monitor.NewRegistryHealth("backend-server", reg, monitor.DefaultServerRules())
	metrics.MountDebug(mux, reg, rec, health)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("backend-server: metrics on http://%s/metrics, traces on /debug/traces, health on /debug/health, profiles on /debug/pprof/\n", ln.Addr())
	return srv
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "backend-server: "+format+"\n", args...)
	os.Exit(1)
}

package live

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/wire"
)

// TestMetricsScrapeMatchesWireStats drives a known op sequence through a
// cache server and requires the /metrics exposition and the wire-level
// stats op to agree on every shared counter — both surfaces read the same
// registry children, so any drift is a bug.
func TestMetricsScrapeMatchesWireStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := cache.NewSharded(1<<20, 4, func() cache.Policy { return cache.NewLRU() })
	table := coop.NewTable()
	srv, err := NewCacheServerOpts("127.0.0.1:0", c, table, ServerOptions{
		Registry: reg, Region: "frankfurt",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	// Known sequence: two sets, one hit, one miss.
	if err := remote.Put(cache.EntryID{Key: "obj", Index: 1}, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Put(cache.EntryID{Key: "obj", Index: 2}, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Get(cache.EntryID{Key: "obj", Index: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Get(cache.EntryID{Key: "gone", Index: 9}); err != cache.ErrNotFound {
		t.Fatalf("miss: err = %v", err)
	}
	wireStats, err := remote.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if wireStats["gets"] != 2 || wireStats["hits"] != 1 || wireStats["sets"] != 2 {
		t.Fatalf("wire stats off: %v", wireStats)
	}

	// Scrape over real HTTP, parse with the package's own parser.
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Every wire stats key with a registry family must expose the same
	// value (no ops ran between the stats call and the scrape).
	families := map[string]string{
		"gets":                 metrics.NameCacheGets,
		"hits":                 metrics.NameCacheHits,
		"sets":                 metrics.NameCacheSets,
		"evictions":            metrics.NameCacheEvictions,
		"admission_rejects":    metrics.NameCacheAdmissionRejects,
		"full_rejects":         metrics.NameCacheFullRejects,
		"used":                 metrics.NameCacheUsedBytes,
		"capacity":             metrics.NameCacheCapacityBytes,
		"shards":               metrics.NameCacheShards,
		"dispatch_queue_depth": metrics.NameServerQueueDepth,
		"peer_hits":            metrics.NameCoopPeerHits,
		"peer_misses":          metrics.NameCoopPeerMisses,
		"digests":              metrics.NameCoopDigests,
		"digests_stale":        metrics.NameCoopDigestsStale,
		"digest_deltas":        metrics.NameCoopDigestDeltas,
	}
	sel := map[string]string{"server": "cache"}
	for key, famName := range families {
		want, ok := wireStats[key]
		if !ok {
			t.Errorf("wire stats missing %q", key)
			continue
		}
		fam, ok := metrics.SelectFamily(fams, famName)
		if !ok {
			t.Errorf("scrape missing family %s (wire key %q)", famName, key)
			continue
		}
		s, ok := metrics.SelectSample(fam, sel)
		if !ok {
			t.Errorf("family %s has no server=cache sample", famName)
			continue
		}
		if int64(s.Value) != want {
			t.Errorf("%s = %v, wire %q = %d", famName, s.Value, key, want)
		}
	}

	// The op latency histograms must have counted the sequence: 2 gets,
	// 2 puts, and at least the one stats op.
	ex, ok := metrics.SelectFamily(fams, metrics.NameServerOpExecute)
	if !ok {
		t.Fatalf("scrape missing %s", metrics.NameServerOpExecute)
	}
	for op, want := range map[string]uint64{wire.OpGet: 2, wire.OpPut: 2} {
		s, ok := metrics.SelectSample(ex, map[string]string{"server": "cache", "op": op})
		if !ok || s.Count != want {
			t.Errorf("execute histogram op=%s count = %d (ok=%v), want %d", op, s.Count, ok, want)
		}
	}
	if s, ok := metrics.SelectSample(ex, map[string]string{"server": "cache", "op": wire.OpStats}); !ok || s.Count < 1 {
		t.Errorf("execute histogram op=stats count = %d (ok=%v), want >= 1", s.Count, ok)
	}
}

// TestReconfigMetrics: each reconfiguration lands in the duration histogram
// under its solver, and the gauges describe the latest run.
func TestReconfigMetrics(t *testing.T) {
	cluster := startReconfigCluster(t, 40, 36)
	node := cluster.Node()
	node.ForceReconfigure()
	node.HandleRead("object-0039")
	cfg := node.ForceReconfigure()
	run := node.Manager().LastRun()

	fams := cluster.Registry().Gather()
	hist, ok := metrics.SelectFamily(fams, metrics.NameReconfigSeconds)
	if !ok {
		t.Fatalf("registry lacks %s", metrics.NameReconfigSeconds)
	}
	if s, ok := metrics.SelectSample(hist, map[string]string{"solver": "exact"}); !ok || s.Count != 2 || s.Sum <= 0 {
		t.Fatalf("%s{solver=exact} = %+v (ok=%v), want 2 observations", metrics.NameReconfigSeconds, s, ok)
	}
	for name, want := range map[string]float64{
		metrics.NameReconfigValue:            cfg.Value,
		metrics.NameReconfigConfiguredChunks: float64(cfg.Weight),
		metrics.NameReconfigMovedKeys:        float64(run.MovedKeys),
	} {
		fam, ok := metrics.SelectFamily(fams, name)
		if !ok || len(fam.Samples) != 1 || fam.Samples[0].Value != want {
			t.Errorf("%s = %+v (ok=%v), want %v", name, fam.Samples, ok, want)
		}
	}
	if cfg.Weight == 0 || cfg.Value == 0 {
		t.Fatalf("empty configuration %v", cfg)
	}
}

// benchServerGet measures serial single-chunk gets over the wire, with the
// server either fully instrumented (default construction) or built with a
// nil serverMetrics — the baseline with no time.Now() calls on the op path.
// The pair bounds instrumentation overhead.
func benchServerGet(b *testing.B, instrumented bool) {
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	var srv *Server
	var err error
	if instrumented {
		srv, err = NewCacheServerOpts("127.0.0.1:0", c, nil, ServerOptions{})
	} else {
		bp := wire.NewBufferPool()
		srv, err = newServer("127.0.0.1:0", cacheHandler(c, nil, coherence.NewVersionTable(), nil, bp), nil, nil, bp, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 64; i++ {
		c.Put(cache.EntryID{Key: "k", Index: i}, make([]byte, 1024))
	}
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.Get(cache.EntryID{Key: "k", Index: i % 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerGetInstrumented(b *testing.B) { benchServerGet(b, true) }
func BenchmarkServerGetBaseline(b *testing.B)     { benchServerGet(b, false) }

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

// TestMetricsScrapeMatchesInProcessCounters drives a known op sequence
// through a cooperative cache server and requires every counter and gauge
// the /metrics exposition carries to equal the in-process source it is
// bound to — the cache's own Stats, the coop table and the dispatch gauge.
func TestMetricsScrapeMatchesInProcessCounters(t *testing.T) {
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
	peer := NewPeerRemoteCache(srv.Addr(), "dublin")
	defer peer.Close()

	// Known sequence: two sets, one hit, one miss, one digest, and one
	// peer read that finds one of its two chunks.
	if err := cachePut(remote, cache.EntryID{Key: "obj", Index: 1}, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := cachePut(remote, cache.EntryID{Key: "obj", Index: 2}, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if _, err := cacheGet(remote, cache.EntryID{Key: "obj", Index: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cacheGet(remote, cache.EntryID{Key: "gone", Index: 9}); err != cache.ErrNotFound {
		t.Fatalf("miss: err = %v", err)
	}
	if err := remote.SendDigest(coop.Digest{Region: "dublin", Seq: 1, Groups: map[string][]int{"x": {0}}}); err != nil {
		t.Fatal(err)
	}
	if found, err := peer.GetMulti("obj", []int{2, 5}); err != nil || len(found) != 1 {
		t.Fatalf("peer mget: %v err %v", found, err)
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

	stats := c.Stats()
	if stats.Gets != 4 || stats.Hits != 2 || stats.Sets != 2 {
		t.Fatalf("cache stats off: %+v", stats)
	}
	peerHits, peerMisses := table.PeerReads()
	if peerHits != 1 || peerMisses != 1 {
		t.Fatalf("peer reads = %d/%d, want 1/1", peerHits, peerMisses)
	}
	applied, staleDigests := table.Applied()
	want := map[string]int64{
		metrics.NameCacheGets:             stats.Gets,
		metrics.NameCacheHits:             stats.Hits,
		metrics.NameCacheSets:             stats.Sets,
		metrics.NameCacheEvictions:        stats.Evictions,
		metrics.NameCacheAdmissionRejects: stats.AdmissionRejects,
		metrics.NameCacheFullRejects:      stats.FullRejects,
		metrics.NameCacheUsedBytes:        c.Used(),
		metrics.NameCacheCapacityBytes:    c.Capacity(),
		metrics.NameCacheShards:           int64(c.ShardCount()),
		metrics.NameServerQueueDepth:      srv.QueueDepth(),
		metrics.NameCoopPeerHits:          peerHits,
		metrics.NameCoopPeerMisses:        peerMisses,
		metrics.NameCoopDigests:           applied,
		metrics.NameCoopDigestsStale:      staleDigests,
		metrics.NameCoopDigestDeltas:      table.Deltas(),
	}
	sel := map[string]string{"server": "cache"}
	for famName, v := range want {
		fam, ok := metrics.SelectFamily(fams, famName)
		if !ok {
			t.Errorf("scrape missing family %s", famName)
			continue
		}
		s, ok := metrics.SelectSample(fam, sel)
		if !ok {
			t.Errorf("family %s has no server=cache sample", famName)
			continue
		}
		if int64(s.Value) != v {
			t.Errorf("%s = %v, in-process source = %d", famName, s.Value, v)
		}
	}

	// The op latency histograms must have counted the sequence: 2 mputs,
	// 1 digest and 3 mgets (the hit, the miss and the peer read).
	ex, ok := metrics.SelectFamily(fams, metrics.NameServerOpExecute)
	if !ok {
		t.Fatalf("scrape missing %s", metrics.NameServerOpExecute)
	}
	for op, want := range map[string]uint64{wire.OpMPut: 2, wire.OpDigest: 1, wire.OpMGet: 3} {
		s, ok := metrics.SelectSample(ex, map[string]string{"server": "cache", "op": op})
		if !ok || s.Count != want {
			t.Errorf("execute histogram op=%s count = %d (ok=%v), want %d", op, s.Count, ok, want)
		}
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
		if _, err := cacheGet(remote, cache.EntryID{Key: "k", Index: i % 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerGetInstrumented(b *testing.B) { benchServerGet(b, true) }
func BenchmarkServerGetBaseline(b *testing.B)     { benchServerGet(b, false) }

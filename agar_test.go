package agar_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	agar "github.com/agardist/agar"
)

const (
	objSize    = 9 * 1024
	chunkBytes = 1025
)

func loadedCluster(t testing.TB, n int, opts ...agar.Option) *agar.Cluster {
	t.Helper()
	c, err := agar.NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, objSize)
		if err := c.Put(fmt.Sprintf("object-%05d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestClusterPutGet(t *testing.T) {
	c := loadedCluster(t, 3)
	got, err := c.Get("object-00001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, objSize)) {
		t.Fatal("round trip failed")
	}
	if c.K() != 9 || c.M() != 3 {
		t.Fatal("default erasure parameters wrong")
	}
	if c.ChunkSize(objSize) != chunkBytes {
		t.Fatalf("ChunkSize = %d", c.ChunkSize(objSize))
	}
}

func TestClusterOptions(t *testing.T) {
	c, err := agar.NewCluster(
		agar.WithErasure(4, 2),
		agar.WithCauchy(),
		agar.WithRotatingPlacement(),
		agar.WithJitter(0),
		agar.WithSeed(9),
		agar.WithLatencyMatrix(agar.TableILatencyMatrix()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 4 || c.M() != 2 {
		t.Fatal("erasure option ignored")
	}
	if err := c.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil || string(got) != "hello" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestClusterRejectsEmptyRegions(t *testing.T) {
	if _, err := agar.NewCluster(agar.WithRegions()); err == nil {
		t.Fatal("accepted empty region list")
	}
}

func TestBackendClient(t *testing.T) {
	c := loadedCluster(t, 2, agar.WithJitter(0))
	cl := c.NewBackendClient(agar.Frankfurt)
	if cl.Strategy() != "backend" || cl.Region() != agar.Frankfurt {
		t.Fatal("identity wrong")
	}
	data, st, err := cl.Get("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != objSize || st.CacheChunks != 0 || st.BackendChunks != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Latency != 985*time.Millisecond {
		t.Fatalf("latency = %v", st.Latency)
	}
	if cl.CacheContents() != nil {
		t.Fatal("backend client has no cache")
	}
	cl.Reconfigure() // no-op, must not panic
}

func TestLRUAndLFUClients(t *testing.T) {
	c := loadedCluster(t, 2, agar.WithJitter(0))
	for _, cl := range []*agar.Client{
		c.NewLRUClient(agar.Frankfurt, 3, 90*chunkBytes),
		c.NewLFUClient(agar.Frankfurt, 3, 90*chunkBytes),
	} {
		cl.Get("object-00000")
		_, st, err := cl.Get("object-00000")
		if err != nil {
			t.Fatal(err)
		}
		if !st.PartialHit || st.CacheChunks != 3 {
			t.Fatalf("%s warm read: %+v", cl.Strategy(), st)
		}
		if len(cl.CacheContents()["object-00000"]) != 3 {
			t.Fatalf("%s cache contents wrong", cl.Strategy())
		}
	}
}

func TestAgarClientEndToEnd(t *testing.T) {
	c := loadedCluster(t, 10, agar.WithJitter(0))
	cl, err := c.NewAgarClient(agar.Sydney, 18*chunkBytes, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Strategy() != "agar" {
		t.Fatal("strategy name")
	}
	for i := 0; i < 40; i++ {
		if _, _, err := cl.Get("object-00000"); err != nil {
			t.Fatal(err)
		}
	}
	cl.Reconfigure()
	cl.Get("object-00000") // populates hinted chunks
	_, st, err := cl.Get("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheChunks == 0 {
		t.Fatalf("expected cache hits after reconfiguration: %+v", st)
	}
	if len(cl.CacheContents()) == 0 {
		t.Fatal("cache empty after population")
	}
}

func TestAgarClientValidation(t *testing.T) {
	c := loadedCluster(t, 1)
	if _, err := c.NewAgarClient(agar.Frankfurt, 1024, 0); err == nil {
		t.Fatal("accepted zero chunkBytes")
	}
}

func TestMaybeReconfigureOnVirtualTime(t *testing.T) {
	c := loadedCluster(t, 2, agar.WithReconfigPeriod(10*time.Second))
	cl, err := c.NewAgarClient(agar.Frankfurt, 9*chunkBytes, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)
	if !cl.MaybeReconfigure(base) {
		t.Fatal("first reconfigure must run")
	}
	if cl.MaybeReconfigure(base.Add(5 * time.Second)) {
		t.Fatal("period not elapsed")
	}
	if !cl.MaybeReconfigure(base.Add(11 * time.Second)) {
		t.Fatal("period elapsed but no reconfiguration")
	}
}

func TestRegionFailureDegradedRead(t *testing.T) {
	c := loadedCluster(t, 1, agar.WithJitter(0))
	cl := c.NewBackendClient(agar.Frankfurt)
	c.SetRegionDown(agar.Tokyo, true)
	data, _, err := cl.Get("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0}, objSize)) {
		t.Fatal("degraded read wrong data")
	}
	c.SetRegionDown(agar.Tokyo, false)
}

func TestTotalBytesIncludesRedundancy(t *testing.T) {
	c := loadedCluster(t, 10)
	raw := int64(10 * objSize)
	total := c.TotalBytes()
	if ratio := float64(total) / float64(raw); ratio < 1.3 || ratio > 1.4 {
		t.Fatalf("overhead ratio %.3f", ratio)
	}
}

func TestLiveClusterFacade(t *testing.T) {
	lc, err := agar.StartLiveCluster(agar.LiveConfig{
		ClientRegion: agar.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if lc.CacheAddr() == "" || lc.HintAddr() == "" || lc.StoreAddr(agar.Tokyo) == "" {
		t.Fatal("addresses missing")
	}
	data := bytes.Repeat([]byte{42}, 10_000)
	if err := lc.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	r, err := lc.NewLiveReader(agar.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 25; i++ {
		got, _, _, err := r.Get("obj")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("live read wrong data")
		}
	}
	lc.Reconfigure()
	if _, _, _, err := r.Get("obj"); err != nil { // populate
		t.Fatal(err)
	}
	r.Flush() // cache fills are async; wait before rereading
	_, _, fromCache, err := r.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if fromCache == 0 {
		t.Fatal("no cache hits after reconfiguration")
	}
	if len(lc.CacheContents()) == 0 {
		t.Fatal("cache contents empty")
	}
}

func TestCooperativePeeringFacade(t *testing.T) {
	c := loadedCluster(t, 6, agar.WithJitter(0))
	fra, err := c.NewAgarClient(agar.Frankfurt, 18*chunkBytes, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	dub, err := c.NewAgarClient(agar.Dublin, 18*chunkBytes, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := fra.Peer(dub, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Peering a non-Agar client must fail.
	if err := fra.Peer(c.NewBackendClient(agar.Dublin), time.Millisecond); err == nil {
		t.Fatal("peered a backend client")
	}

	// Dublin warms its cache; a Frankfurt read then beats an isolated one.
	for i := 0; i < 50; i++ {
		dub.Get("object-00000")
	}
	dub.Reconfigure()
	dub.Get("object-00000")
	_, coopStats, err := fra.Get("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	solo := c.NewBackendClient(agar.Frankfurt)
	_, soloStats, err := solo.Get("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if coopStats.Latency >= soloStats.Latency {
		t.Fatalf("cooperative read (%v) not faster than backend read (%v)",
			coopStats.Latency, soloStats.Latency)
	}
}

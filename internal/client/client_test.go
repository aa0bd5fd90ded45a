package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
)

const (
	testObjSize    = 9 * 1024 // 9 KiB objects -> ~1 KiB chunks
	testChunkBytes = 1025     // ChunkSize(9216) for RS(9,3): ceil((9216+8)/9)
)

// testEnv builds a six-region deployment with nObjects random objects and
// no jitter, so latencies are exact model values.
func testEnv(t testing.TB, nObjects int) (*Env, map[string][]byte) {
	t.Helper()
	codec, err := erasure.New(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	placement := geo.NewRoundRobin(geo.DefaultRegions(), false)
	cluster := backend.NewCluster(geo.DefaultRegions(), codec, placement)
	rng := rand.New(rand.NewSource(99))
	objects := make(map[string][]byte, nObjects)
	for i := 0; i < nObjects; i++ {
		key := fmt.Sprintf("object-%05d", i)
		data := make([]byte, testObjSize)
		rng.Read(data)
		objects[key] = data
		if err := cluster.PutObject(key, data); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{
		Cluster:        cluster,
		Matrix:         geo.DefaultMatrix(),
		CacheLatency:   20 * time.Millisecond,
		DecodeLatency:  5 * time.Millisecond,
		MonitorLatency: 500 * time.Microsecond,
	}
	return env, objects
}

func newAgarNode(env *Env, region geo.RegionID, slots int) *core.Node {
	n := core.NewNode(core.NodeParams{
		Region:         region,
		Regions:        geo.DefaultRegions(),
		Placement:      env.Cluster.Placement(),
		K:              9,
		M:              3,
		CacheBytes:     int64(slots) * testChunkBytes,
		ChunkBytes:     testChunkBytes,
		ReconfigPeriod: 30 * time.Second,
		CacheLatency:   env.CacheLatency,
	})
	n.RegionManager().WarmUp(func(r geo.RegionID) time.Duration {
		return env.Matrix.Get(region, r)
	}, 2)
	return n
}

func TestBackendReaderLatencyModel(t *testing.T) {
	env, objects := testEnv(t, 3)
	r := NewBackendReader(env, geo.Frankfurt)
	if r.Name() != "backend" {
		t.Fatal("name")
	}
	data, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, objects["object-00000"]) {
		t.Fatal("data mismatch")
	}
	// Frankfurt's nearest 9 include one Tokyo chunk (980 ms) + 5 ms decode.
	want := 985 * time.Millisecond
	if res.Latency != want {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}
	if res.BackendChunks != 9 || res.CacheChunks != 0 || res.Hit() || res.Waves != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestBackendReaderSydney(t *testing.T) {
	env, _ := testEnv(t, 1)
	r := NewBackendReader(env, geo.Sydney)
	_, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	// Sydney's nearest 9: SYD x2, TYO x2, NVA x2, SAO x2, FRA x1 -> 1000ms + decode.
	if want := 1005 * time.Millisecond; res.Latency != want {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}
}

func TestBackendReaderMissingObject(t *testing.T) {
	env, _ := testEnv(t, 1)
	r := NewBackendReader(env, geo.Frankfurt)
	if _, _, err := r.Read("does-not-exist"); err == nil {
		t.Fatal("expected error for missing object")
	}
}

func TestBackendReaderDegraded(t *testing.T) {
	env, objects := testEnv(t, 1)
	r := NewBackendReader(env, geo.Frankfurt)

	// Take Tokyo down: its chunk must be replaced by a Sydney chunk in a
	// second wave.
	env.Cluster.Store(geo.Tokyo).SetDown(true)
	data, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, objects["object-00000"]) {
		t.Fatal("degraded read returned wrong data")
	}
	if res.Waves != 2 {
		t.Fatalf("waves = %d, want 2", res.Waves)
	}
	// Wave 1 max = Tokyo 980 (the failed request still costs its RTT);
	// wave 2 = Sydney 1150; decode 5.
	if want := (980 + 1150 + 5) * time.Millisecond; res.Latency != want {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}

	// Two regions down: 8 healthy chunks < k, must error.
	env.Cluster.Store(geo.Sydney).SetDown(true)
	if _, _, err := r.Read("object-00000"); err == nil {
		t.Fatal("expected unavailability with 4 chunks down")
	}
}

func TestFixedReaderMissThenHit(t *testing.T) {
	env, objects := testEnv(t, 2)
	r := NewFixedReader(env, geo.Frankfurt, cache.NewLRU(), 3, 90*testChunkBytes)
	if r.Name() != "lru-3" {
		t.Fatalf("name = %q", r.Name())
	}

	// First read: cold miss, full backend latency.
	_, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit() || res.CacheChunks != 0 {
		t.Fatalf("cold read: %+v", res)
	}
	if want := 985 * time.Millisecond; res.Latency != want {
		t.Fatalf("cold latency = %v, want %v", res.Latency, want)
	}

	// Second read: the 3 most distant retained chunks (TYO x1 + SAO x2)
	// are cached; residual max = N. Virginia 850 + decode 5.
	data, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, objects["object-00000"]) {
		t.Fatal("data mismatch")
	}
	if !res.PartialHit || res.FullHit || res.CacheChunks != 3 || res.BackendChunks != 6 {
		t.Fatalf("warm read: %+v", res)
	}
	if want := 855 * time.Millisecond; res.Latency != want {
		t.Fatalf("warm latency = %v, want %v", res.Latency, want)
	}
}

func TestFixedReaderFullReplica(t *testing.T) {
	env, _ := testEnv(t, 1)
	r := NewFixedReader(env, geo.Frankfurt, cache.NewLFU(), 9, 90*testChunkBytes)
	if r.Name() != "lfu-9" {
		t.Fatalf("name = %q", r.Name())
	}
	r.Read("object-00000")
	_, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullHit || res.BackendChunks != 0 || res.CacheChunks != 9 {
		t.Fatalf("full-replica read: %+v", res)
	}
	// Full hit: cache latency 20 + decode 5.
	if want := 25 * time.Millisecond; res.Latency != want {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}
}

func TestFixedReaderEviction(t *testing.T) {
	env, _ := testEnv(t, 10)
	// Cache of 6 chunk slots with c=3: only two objects fit.
	r := NewFixedReader(env, geo.Frankfurt, cache.NewLRU(), 3, 6*testChunkBytes)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("object-%05d", i)
		if _, _, err := r.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	// Object 0 should have been evicted (LRU), objects 1 and 2 resident.
	if got := r.Cache().IndicesOf("object-00000"); len(got) != 0 {
		t.Fatalf("object 0 still cached: %v", got)
	}
	_, res, err := r.Read("object-00002")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit() {
		t.Fatal("object 2 should hit")
	}
}

func TestFixedReaderInvalidC(t *testing.T) {
	env, _ := testEnv(t, 1)
	for _, c := range []int{0, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("c=%d did not panic", c)
				}
			}()
			NewFixedReader(env, geo.Frankfurt, cache.NewLRU(), c, 1024)
		}()
	}
}

func TestAgarReaderFollowsHints(t *testing.T) {
	env, objects := testEnv(t, 5)
	node := newAgarNode(env, geo.Frankfurt, 18)
	r := NewAgarReader(env, geo.Frankfurt, node)
	if r.Name() != "agar" || r.Node() != node {
		t.Fatal("identity")
	}

	// Build popularity, then reconfigure.
	for i := 0; i < 50; i++ {
		r.Read("object-00000")
	}
	for i := 0; i < 10; i++ {
		r.Read("object-00001")
	}
	node.ForceReconfigure()
	cfg := node.Manager().Active()
	hot := cfg.ChunksFor("object-00000")
	if len(hot) == 0 {
		t.Fatal("hot object not configured")
	}

	// Next read fetches hinted chunks from backend and caches them...
	_, res1, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Hit() {
		t.Fatalf("first post-config read should not hit: %+v", res1)
	}
	if got := node.Cache().IndicesOf("object-00000"); len(got) != len(hot) {
		t.Fatalf("cache population: %v vs config %v", got, hot)
	}
	// ...and the read after that serves them from cache.
	data, res2, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, objects["object-00000"]) {
		t.Fatal("data mismatch")
	}
	if res2.CacheChunks != len(hot) || !res2.Hit() {
		t.Fatalf("hinted read: %+v", res2)
	}
	if res2.Latency >= res1.Latency {
		t.Fatalf("cached read (%v) not faster than uncached (%v)", res2.Latency, res1.Latency)
	}
}

func TestAgarReaderUnknownKeyStillWorks(t *testing.T) {
	env, objects := testEnv(t, 1)
	node := newAgarNode(env, geo.Sydney, 9)
	r := NewAgarReader(env, geo.Sydney, node)
	data, res, err := r.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, objects["object-00000"]) {
		t.Fatal("data mismatch")
	}
	if res.CacheChunks != 0 {
		t.Fatalf("no hint should mean no cache chunks: %+v", res)
	}
}

func TestWriterInvalidatesCaches(t *testing.T) {
	env, _ := testEnv(t, 1)
	fixed := NewFixedReader(env, geo.Frankfurt, cache.NewLRU(), 3, 90*testChunkBytes)
	fixed.Read("object-00000") // populate
	fixed.Read("object-00000")
	if got := fixed.Cache().IndicesOf("object-00000"); len(got) == 0 {
		t.Fatal("precondition: cache populated")
	}

	w := NewWriter(env, geo.Frankfurt, fixed.Cache())
	fresh := bytes.Repeat([]byte{7}, testObjSize)
	lat, err := w.Write("object-00000", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("write latency must be positive")
	}
	if got := fixed.Cache().IndicesOf("object-00000"); len(got) != 0 {
		t.Fatalf("stale chunks survived the write: %v", got)
	}
	data, _, err := fixed.Read("object-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, fresh) {
		t.Fatal("read-after-write returned stale data")
	}
}

func TestWriterAddInvalidator(t *testing.T) {
	env, _ := testEnv(t, 1)
	w := NewWriter(env, geo.Frankfurt)
	fixed := NewFixedReader(env, geo.Frankfurt, cache.NewLRU(), 1, 9*testChunkBytes)
	w.AddInvalidator(fixed.Cache())
	fixed.Read("object-00000")
	fixed.Read("object-00000")
	if _, err := w.Write("object-00000", make([]byte, testObjSize)); err != nil {
		t.Fatal(err)
	}
	if got := fixed.Cache().IndicesOf("object-00000"); len(got) != 0 {
		t.Fatal("late-registered invalidator not applied")
	}
}

func TestChunkBytesConstantMatchesCodec(t *testing.T) {
	codec, _ := erasure.New(9, 3)
	if got := codec.ChunkSize(testObjSize); got != testChunkBytes {
		t.Fatalf("testChunkBytes=%d but codec says %d", testChunkBytes, got)
	}
}

// TestAgarReaderHintBeyondK: a hint names the configured chunks plus the
// resident ones, so it can list more than k. The reader must still read
// exactly k chunks, all from the cache, and count the read as a full hit.
func TestAgarReaderHintBeyondK(t *testing.T) {
	const key = "object-00000"
	for _, resident := range []int{9, 10, 11, 12} {
		t.Run(fmt.Sprintf("resident=%d", resident), func(t *testing.T) {
			env, objects := testEnv(t, 1)
			node := newAgarNode(env, geo.Frankfurt, 18)
			node.Cache().SetAdmission(func(cache.EntryID) bool { return true })
			chunks, err := env.Cluster.Codec().Split(objects[key])
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < resident; idx++ {
				if err := node.Cache().Put(cache.EntryID{Key: key, Index: idx}, chunks[idx]); err != nil {
					t.Fatal(err)
				}
			}
			if hint := node.HandleRead(key); len(hint.CacheChunks) != resident {
				t.Fatalf("hint names %d chunks, want %d", len(hint.CacheChunks), resident)
			}
			data, res, err := NewAgarReader(env, geo.Frankfurt, node).Read(key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, objects[key]) {
				t.Fatal("data mismatch")
			}
			if res.CacheChunks != 9 || res.BackendChunks != 0 || res.PeerChunks != 0 {
				t.Fatalf("read %d cache + %d backend + %d peer chunks, want 9 + 0 + 0", res.CacheChunks, res.BackendChunks, res.PeerChunks)
			}
			if !res.FullHit || res.PartialHit {
				t.Fatalf("full hit %v, partial hit %v; want a full hit", res.FullHit, res.PartialHit)
			}
		})
	}
}

package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

func TestRemoteCacheBatchRoundTrip(t *testing.T) {
	c := cache.NewSharded(1<<20, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	chunks := map[int][]byte{0: []byte("aa"), 3: []byte("bbb"), 7: []byte("c")}
	if err := remote.PutMultiVer("obj", chunks, 0); err != nil {
		t.Fatal(err)
	}
	// Ask for a superset: absent indices must simply be missing.
	got, err := remote.GetMulti("obj", []int{0, 1, 3, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetMulti returned %d chunks: %v", len(got), got)
	}
	for idx, want := range chunks {
		if !bytes.Equal(got[idx], want) {
			t.Fatalf("chunk %d = %q, want %q", idx, got[idx], want)
		}
	}
	// All-miss batches return an empty map, not an error.
	got, err = remote.GetMulti("missing", []int{0, 1})
	if err != nil || len(got) != 0 {
		t.Fatalf("all-miss: got %v err %v", got, err)
	}
	// Empty requests don't touch the wire.
	got, err = remote.GetMulti("obj", nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty mget: got %v err %v", got, err)
	}
	if err := remote.PutMultiVer("obj", nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCacheBatchRespectsAdmission(t *testing.T) {
	c := cache.New(1<<20, cache.NewLRU())
	c.SetAdmission(func(id cache.EntryID) bool { return id.Index%2 == 0 })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	if err := remote.PutMultiVer("obj", map[int][]byte{0: {1}, 1: {2}, 2: {3}, 3: {4}}, 0); err != nil {
		t.Fatal(err)
	}
	got, err := remote.GetMulti("obj", []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != nil || got[3] != nil {
		t.Fatalf("admission ignored by batch put: %v", got)
	}
	stats := c.Stats()
	if stats.AdmissionRejects != 2 || stats.AdmissionRejects+stats.FullRejects != 2 || stats.FullRejects != 0 {
		t.Fatalf("reject counters wrong: %+v", stats)
	}
	if c.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
}

func TestRemoteCachePoolServesConcurrentCallers(t *testing.T) {
	c := cache.NewSharded(1<<20, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(8))
				switch rng.Intn(3) {
				case 0:
					if err := remote.PutMultiVer(key, map[int][]byte{rng.Intn(4): {byte(i)}, 4 + rng.Intn(4): {byte(g)}}, 0); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := remote.GetMulti(key, []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := cacheGet(remote, cache.EntryID{Key: key, Index: rng.Intn(8)}); err != nil && err != cache.ErrNotFound {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNetworkReaderDegradedWaveOnMidFlightFailure kills a store server the
// planner still believes is alive: the in-flight chunk fetch dies and the
// reader must substitute chunks from the remaining regions instead of
// failing the read.
func TestNetworkReaderDegradedWaveOnMidFlightFailure(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		K:            4,
		M:            2, // one chunk per default region
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	data := make([]byte, 8_000)
	rand.New(rand.NewSource(11)).Read(data)
	if err := cluster.Backend().PutObject("obj", data); err != nil {
		t.Fatal(err)
	}
	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if _, _, _, err := reader.Read("obj"); err != nil {
		t.Fatalf("healthy read: %v", err)
	}

	// Dublin is Frankfurt's nearest remote region, so its chunk is in every
	// fetch plan. Killing its server is invisible to planning (no schedule
	// cut) — the failure happens mid-flight.
	cluster.storeSrvs[geo.Dublin].Close()

	for i := 0; i < 3; i++ {
		got, _, _, err := reader.Read("obj")
		if err != nil {
			t.Fatalf("read with dublin dead mid-flight: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("degraded wave returned wrong data")
		}
	}
}

func TestPopulatorFlushAndDrop(t *testing.T) {
	c := cache.New(1<<20, cache.NewLRU())
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	p := newPopulator(remote, 2, 4)
	for i := 0; i < 32; i++ {
		p.enqueue(fmt.Sprintf("k%d", i), map[int][]byte{0: make([]byte, 128)}, 0)
	}
	p.flush()
	if got := c.Len(); got == 0 {
		t.Fatal("flush returned before any fill landed")
	}
	// Some of 32 instant enqueues over a 4-deep queue may shed; all applied
	// plus dropped must account for every job.
	applied := int64(c.Len())
	if applied+p.droppedCount() != 32 {
		t.Fatalf("applied %d + dropped %d != 32", applied, p.droppedCount())
	}
	p.close()
	if p.enqueue("late", map[int][]byte{0: {1}}, 0) {
		t.Fatal("enqueue after close must drop")
	}
	p.close() // idempotent
}

func TestPopulatorEmptyEnqueueIsNoop(t *testing.T) {
	p := newPopulator(nil, 1, 1)
	defer p.close()
	if !p.enqueue("k", nil, 0) {
		t.Fatal("empty fill should be accepted as a no-op")
	}
	p.flush()
}

// startBenchCache boots a cache server preloaded with one object's chunks
// and returns a connected client.
func startBenchCache(b *testing.B, shards int) (*RemoteCache, func()) {
	b.Helper()
	var c *cache.Cache
	if shards <= 1 {
		c = cache.New(1<<26, cache.NewLRU())
	} else {
		c = cache.NewSharded(1<<26, shards, func() cache.Policy { return cache.NewLRU() })
	}
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		b.Fatal(err)
	}
	remote := NewRemoteCache(srv.Addr())
	data := make([]byte, 4096)
	for obj := 0; obj < 64; obj++ {
		for idx := 0; idx < 9; idx++ {
			if err := c.Put(cache.EntryID{Key: fmt.Sprintf("obj%d", obj), Index: idx}, data); err != nil {
				b.Fatal(err)
			}
		}
	}
	return remote, func() { remote.Close(); srv.Close() }
}

// BenchmarkRemoteCachePerChunk is the pre-refactor baseline end to end:
// a single-lock cache behind nine sequential single-chunk round trips per
// object.
func BenchmarkRemoteCachePerChunk(b *testing.B) {
	remote, stop := startBenchCache(b, 1)
	defer stop()
	b.SetBytes(9 * 4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("obj%d", i%64)
			for idx := 0; idx < 9; idx++ {
				if _, err := cacheGet(remote, cache.EntryID{Key: key, Index: idx}); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
	})
}

// BenchmarkRemoteCacheBatched is the refactored data plane end to end: an
// 8-shard cache behind one OpMGet round trip for all nine chunks.
func BenchmarkRemoteCacheBatched(b *testing.B) {
	remote, stop := startBenchCache(b, 8)
	defer stop()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	b.SetBytes(9 * 4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			got, err := remote.GetMulti(fmt.Sprintf("obj%d", i%64), want)
			if err != nil {
				b.Error(err)
				return
			}
			if len(got) != 9 {
				b.Errorf("got %d chunks", len(got))
				return
			}
			i++
		}
	})
}

// BenchmarkRemoteStoreSerializedConn approximates the old single-connection
// adapter by bounding the benchmark to one in-flight call per goroutine
// pair; BenchmarkRemoteStorePooled lets the pool overlap exchanges.
func BenchmarkRemoteStorePooled(b *testing.B) {
	store := backend.NewStore(geo.Frankfurt)
	srv, err := NewStoreServer("127.0.0.1:0", store)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteStore(srv.Addr())
	defer remote.Close()
	data := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		store.Put(backend.ChunkID{Key: fmt.Sprintf("k%d", i), Index: 0}, data)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := storeGet(remote, backend.ChunkID{Key: fmt.Sprintf("k%d", i%64), Index: 0}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

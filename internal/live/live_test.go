package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/wire"
)

// cacheGet fetches one chunk through the cache server's batched read.
func cacheGet(c *RemoteCache, id cache.EntryID) ([]byte, error) {
	found, err := c.GetMulti(id.Key, []int{id.Index})
	if err != nil {
		return nil, err
	}
	data, ok := found[id.Index]
	if !ok {
		return nil, cache.ErrNotFound
	}
	return data, nil
}

// storeGet fetches one chunk through the store server's batched read.
func storeGet(s *RemoteStore, id backend.ChunkID) ([]byte, error) {
	found, err := s.GetMulti(id.Key, []int{id.Index})
	if err != nil {
		return nil, err
	}
	data, ok := found[id.Index]
	if !ok {
		return nil, backend.ErrNotFound
	}
	return data, nil
}

// cachePut inserts one unversioned chunk through the cache server's mput.
func cachePut(c *RemoteCache, id cache.EntryID, data []byte) error {
	return c.PutMultiVer(id.Key, map[int][]byte{id.Index: data}, 0)
}

// mputFrame builds the mput request storing chunks under key.
func mputFrame(key string, chunks map[int][]byte) wire.Message {
	indices, sizes, body, err := wire.PackBatch(chunks)
	if err != nil {
		panic(err)
	}
	return wire.Message{Header: wire.Header{Op: wire.OpMPut, Key: key, Indices: indices, Sizes: sizes}, Body: body}
}

// mgetFrame builds the mget request for the given chunks of key.
func mgetFrame(key string, indices ...int) wire.Message {
	return wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}}
}

// pipeline writes msgs back to back on conn as one burst, so the server
// sees them pipelined, then reads one reply per request, in order.
func pipeline(t testing.TB, conn net.Conn, msgs ...wire.Message) []wire.Message {
	t.Helper()
	var burst []byte
	for _, m := range msgs {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, frame...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	replies := make([]wire.Message, len(msgs))
	for i := range replies {
		resp, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i, len(msgs), err)
		}
		replies[i] = resp
	}
	return replies
}

func TestStoreServerRoundTrip(t *testing.T) {
	store := backend.NewStore(geo.Frankfurt)
	srv, err := NewStoreServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote := NewRemoteStore(srv.Addr())
	defer remote.Close()

	id := backend.ChunkID{Key: "obj", Index: 3}
	if _, err := storeGet(remote, id); err != backend.ErrNotFound {
		t.Fatalf("missing chunk: err = %v", err)
	}
	data := []byte("chunk-payload")
	if err := remote.PutVer(id, data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := storeGet(remote, id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("got %q err %v", got, err)
	}
	if n := store.Len(); n != 1 {
		t.Fatalf("store holds %d chunks, want 1", n)
	}
}

func TestCacheServerRoundTrip(t *testing.T) {
	c := cache.New(1<<20, cache.NewLRU())
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	id := cache.EntryID{Key: "obj", Index: 4}
	if _, err := cacheGet(remote, id); err != cache.ErrNotFound {
		t.Fatalf("err = %v", err)
	}
	if err := cachePut(remote, id, []byte("cc")); err != nil {
		t.Fatal(err)
	}
	if err := cachePut(remote, cache.EntryID{Key: "obj", Index: 9}, []byte("dd")); err != nil {
		t.Fatal(err)
	}
	got, err := cacheGet(remote, id)
	if err != nil || string(got) != "cc" {
		t.Fatalf("got %q err %v", got, err)
	}
	if idxs := c.IndicesOf("obj"); len(idxs) != 2 {
		t.Fatalf("indices %v", idxs)
	}
	if err := remote.DeleteObjectVer("obj", 0); err == nil {
		t.Fatal("unversioned delobj accepted")
	}
	if err := remote.DeleteObjectVer("obj", 1); err != nil {
		t.Fatal(err)
	}
	if idxs := c.IndicesOf("obj"); len(idxs) != 0 {
		t.Fatal("delete object failed")
	}
	if sets := c.Stats().Sets; sets != 2 {
		t.Fatalf("sets = %d, want 2", sets)
	}
}

func TestHintServersTCPAndUDP(t *testing.T) {
	node := core.NewNode(core.NodeParams{
		Region:     geo.Frankfurt,
		Regions:    geo.DefaultRegions(),
		Placement:  geo.NewRoundRobin(geo.DefaultRegions(), false),
		K:          9,
		M:          3,
		CacheBytes: 90 * 1024,
		ChunkBytes: 1024,
	})
	matrix := geo.DefaultMatrix()
	node.RegionManager().WarmUp(func(r geo.RegionID) time.Duration {
		return matrix.Get(geo.Frankfurt, r)
	}, 1)

	tcpSrv, err := NewHintServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	udpSrv, err := NewUDPHintServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer udpSrv.Close()

	// Generate traffic through both channels, reconfigure, then check that
	// hints appear and accesses were recorded.
	tcpHinter := NewRemoteHinter(tcpSrv.Addr())
	defer tcpHinter.Close()
	udpHinter, err := NewUDPHinter(udpSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer udpHinter.Close()

	for i := 0; i < 25; i++ {
		if _, err := tcpHinter.Hint("hot-object"); err != nil {
			t.Fatal(err)
		}
		if _, err := udpHinter.Hint("hot-object"); err != nil {
			t.Fatal(err)
		}
	}
	if node.Monitor().CurrentFrequency("hot-object") != 50 {
		t.Fatalf("monitor recorded %d", node.Monitor().CurrentFrequency("hot-object"))
	}
	node.ForceReconfigure()
	chunks, err := tcpHinter.Hint("hot-object")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("expected a non-empty hint after reconfiguration")
	}
	udpChunks, err := udpHinter.Hint("hot-object")
	if err != nil {
		t.Fatal(err)
	}
	if len(udpChunks) != len(chunks) {
		t.Fatalf("udp hint %v != tcp hint %v", udpChunks, chunks)
	}
}

func TestNetworkReaderEndToEnd(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0, // no artificial delays in unit tests
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Load objects.
	objects := make(map[string][]byte)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("object-%d", i)
		data := make([]byte, 10_000)
		rng.Read(data)
		objects[key] = data
		if err := cluster.Backend().PutObject(key, data); err != nil {
			t.Fatal(err)
		}
	}

	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// Cold reads return correct data with no cache involvement.
	for key, want := range objects {
		got, _, fromCache, err := reader.Read(key)
		if err != nil {
			t.Fatalf("read %q: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q: wrong data", key)
		}
		if fromCache != 0 {
			t.Fatalf("cold read served %d chunks from cache", fromCache)
		}
	}

	// Build popularity and reconfigure; next reads should hit the cache.
	for i := 0; i < 30; i++ {
		if _, _, _, err := reader.Read("object-0"); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Node().ForceReconfigure()
	if _, _, _, err := reader.Read("object-0"); err != nil {
		t.Fatal(err) // fetches hinted chunks, populates cache
	}
	reader.FlushPopulation() // cache fills are async; wait before rereading
	got, _, fromCache, err := reader.Read("object-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, objects["object-0"]) {
		t.Fatal("cached read returned wrong data")
	}
	if fromCache == 0 {
		t.Fatal("expected cache hits after reconfiguration")
	}
}

func TestNetworkReaderWithScaledDelays(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion: geo.Sydney,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0.001, // 1000 ms -> 1 ms
		UseUDPHints:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Backend().PutObject("obj", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	reader, err := NewNetworkReader(cluster, geo.Sydney)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	_, lat, _, err := reader.Read("obj")
	if err != nil {
		t.Fatal(err)
	}
	// The slowest needed chunk from Sydney is Frankfurt (1000 ms) scaled to
	// ~1 ms; total must be at least that and well under the unscaled value.
	if lat < 500*time.Microsecond {
		t.Fatalf("latency %v suspiciously low — delays not injected?", lat)
	}
	if lat > 500*time.Millisecond {
		t.Fatalf("latency %v too high — delays not scaled?", lat)
	}
}

func TestServerCloseIsIdempotentAndUnblocks(t *testing.T) {
	store := backend.NewStore(geo.Dublin)
	srv, err := NewStoreServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRemoteStore(srv.Addr())
	remote.PutVer(backend.ChunkID{Key: "x", Index: 0}, []byte("1"), 0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.Close() }()
	go func() { defer wg.Done(); srv.Close() }()
	wg.Wait()
	// Further calls fail cleanly rather than hanging.
	if err := remote.PutVer(backend.ChunkID{Key: "y", Index: 0}, []byte("2"), 0); err == nil {
		// The write may be buffered before the close lands; a subsequent
		// round trip must fail.
		if _, err := storeGet(remote, backend.ChunkID{Key: "y", Index: 0}); err == nil {
			t.Fatal("server still serving after Close")
		}
	}
}

func TestConcurrentNetworkReaders(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	data := make([]byte, 8000)
	rand.New(rand.NewSource(1)).Read(data)
	cluster.Backend().PutObject("shared", data)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader, err := NewNetworkReader(cluster, geo.Frankfurt)
			if err != nil {
				errs <- err
				return
			}
			defer reader.Close()
			for i := 0; i < 10; i++ {
				got, _, _, err := reader.Read("shared")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("data mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNetworkReaderSteersAroundScheduledCut boots the cluster with a chaos
// schedule that isolates one region and checks the reader detours: reads
// still succeed (the substitute chunks decode correctly) without ever
// contacting the severed region.
func TestNetworkReaderSteersAroundScheduledCut(t *testing.T) {
	sched := netsim.NewSchedule(time.Now())
	sched.CutRegion(netsim.Window{}, geo.Dublin) // open-ended outage from epoch

	cluster, err := StartCluster(ClusterConfig{
		K:            4,
		M:            2, // one chunk per default region
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0,
		Schedule:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	data := make([]byte, 8_000)
	rand.New(rand.NewSource(9)).Read(data)
	if err := cluster.Backend().PutObject("obj", data); err != nil {
		t.Fatal(err)
	}

	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	for i := 0; i < 5; i++ {
		got, _, _, err := reader.Read("obj")
		if err != nil {
			t.Fatalf("read with dublin dark: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("detour read returned wrong data")
		}
	}
}

// TestNetworkReaderKeepsNearestHintedChunks: a hint names the configured
// chunks plus the resident ones, so with every chunk resident it lists all
// k+m. The reader must fetch the k nearest of them, not the first k in hint
// order: the resident copies of the others are corrupted, so reading any of
// them decodes the wrong bytes.
func TestNetworkReaderKeepsNearestHintedChunks(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	codec := cluster.Backend().Codec()
	k, total := codec.K(), codec.Total()

	// The k nearest chunks in the reader's order (latency, then index);
	// pick a key where they differ from the hint's first k (ascending).
	nearestOf := func(key string) map[int]bool {
		plan := geo.PlanFetch(geo.DefaultMatrix(), cluster.Backend().Placement(), key, total, geo.Frankfurt)
		order := make([]int, total)
		lat := make(map[int]int64, total)
		for i, idx := range plan.Chunks {
			order[i] = idx
			lat[idx] = plan.Latency[i]
		}
		sort.Slice(order, func(a, b int) bool {
			if lat[order[a]] != lat[order[b]] {
				return lat[order[a]] < lat[order[b]]
			}
			return order[a] < order[b]
		})
		near := make(map[int]bool, k)
		for _, idx := range order[:k] {
			near[idx] = true
		}
		return near
	}
	key, near := "", map[int]bool(nil)
	for i := 0; i < 100 && key == ""; i++ {
		cand := fmt.Sprintf("object-%d", i)
		n := nearestOf(cand)
		for idx := 0; idx < k; idx++ {
			if !n[idx] {
				key, near = cand, n
				break
			}
		}
	}
	if key == "" {
		t.Fatal("no key whose nearest chunks differ from the first k indices")
	}

	data := bytes.Repeat([]byte("agar"), 2_500)
	if err := cluster.Backend().PutObject(key, data); err != nil {
		t.Fatal(err)
	}
	chunks, err := codec.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Node().Cache()
	c.SetAdmission(func(cache.EntryID) bool { return true })
	for idx, chunk := range chunks {
		if !near[idx] {
			chunk = bytes.Repeat([]byte{0xEE}, len(chunk))
		}
		if err := c.Put(cache.EntryID{Key: key, Index: idx}, chunk); err != nil {
			t.Fatal(err)
		}
	}

	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got, info, err := reader.ReadDetailed(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read decoded a chunk outside the k nearest hinted ones")
	}
	if info.CacheChunks != k {
		t.Fatalf("%d chunks from cache, want %d", info.CacheChunks, k)
	}
}

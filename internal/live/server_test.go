package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/wire"
)

// TestShardDispatchFanIn hammers one cache server from many connections
// across every cache shard, asserting the data plane stays correct, the
// OpStats counters stay consistent, and the in-flight gauge drains to zero
// once the fan-in stops.
func TestShardDispatchFanIn(t *testing.T) {
	const (
		shards  = 8
		clients = 16
		keys    = 4
		indices = 64 // covers every shard many times over
	)
	c := cache.NewSharded(1<<22, shards, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Every shard must see traffic for "across all shards" to mean anything.
	seen := make(map[int]bool)
	for k := 0; k < keys; k++ {
		for i := 0; i < indices; i++ {
			seen[c.ShardIndex(cache.EntryID{Key: fmt.Sprintf("key-%d", k), Index: i})] = true
		}
	}
	if len(seen) != shards {
		t.Fatalf("test keys cover %d of %d shards", len(seen), shards)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			remote := NewRemoteCache(srv.Addr())
			defer remote.Close()
			rng := rand.New(rand.NewSource(int64(cl)))
			for op := 0; op < 120; op++ {
				key := fmt.Sprintf("key-%d", rng.Intn(keys))
				switch op % 3 {
				case 0: // single put then read-back
					idx := rng.Intn(indices)
					want := []byte(fmt.Sprintf("%s#%d", key, idx))
					if err := remote.Put(cache.EntryID{Key: key, Index: idx}, want); err != nil {
						errs <- err
						return
					}
					got, err := remote.Get(cache.EntryID{Key: key, Index: idx})
					if err != nil {
						errs <- fmt.Errorf("get %s#%d: %w", key, idx, err)
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("get %s#%d = %q, want %q", key, idx, got, want)
						return
					}
				case 1: // batched put across shards
					chunks := make(map[int][]byte)
					for i := 0; i < 12; i++ {
						idx := rng.Intn(indices)
						chunks[idx] = []byte(fmt.Sprintf("%s#%d", key, idx))
					}
					if err := remote.PutMulti(key, chunks); err != nil {
						errs <- err
						return
					}
				case 2: // batched read across shards: every hit must be right
					idxs := make([]int, 0, 16)
					for i := 0; i < 16; i++ {
						idxs = append(idxs, rng.Intn(indices))
					}
					found, err := remote.GetMulti(key, idxs)
					if err != nil {
						errs <- err
						return
					}
					for idx, data := range found {
						if want := fmt.Sprintf("%s#%d", key, idx); string(data) != want {
							errs <- fmt.Errorf("mget %s#%d = %q, want %q", key, idx, data, want)
							return
						}
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()
	stats, err := remote.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["shards"] != shards {
		t.Fatalf("stats shards = %d, want %d", stats["shards"], shards)
	}
	if stats["gets"] <= 0 || stats["sets"] <= 0 {
		t.Fatalf("stats show no traffic: %v", stats)
	}
	if stats["hits"] > stats["gets"] {
		t.Fatalf("hits %d exceed gets %d", stats["hits"], stats["gets"])
	}
	if _, ok := stats["dispatch_queue_depth"]; !ok {
		t.Fatalf("stats missing dispatch_queue_depth: %v", stats)
	}
	if depth := stats["dispatch_queue_depth"]; depth != 0 {
		t.Fatalf("dispatch_queue_depth = %d after quiesce, want 0", depth)
	}
}

// TestSplitBatchReplyOrdering checks an mget whose shuffled indices span
// every cache shard replies in ascending chunk order with batch framing.
func TestSplitBatchReplyOrdering(t *testing.T) {
	c := cache.NewSharded(1<<22, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()

	want := make(map[int][]byte)
	for i := 0; i < 32; i++ {
		want[i] = []byte(fmt.Sprintf("chunk-%02d", i))
	}
	if err := remote.PutMulti("obj", want); err != nil {
		t.Fatal(err)
	}

	// Raw connection: inspect the reply frame itself, not the client's view.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	idxs := []int{31, 7, 0, 19, 4, 25, 12, 1, 30, 9} // deliberately shuffled
	resp, err := wire.Call(conn, wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: "obj", Indices: idxs}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Op != wire.OpOK {
		t.Fatalf("mget reply op %q", resp.Header.Op)
	}
	if len(resp.Header.Indices) != len(idxs) {
		t.Fatalf("mget returned %d chunks, want %d", len(resp.Header.Indices), len(idxs))
	}
	for i := 1; i < len(resp.Header.Indices); i++ {
		if resp.Header.Indices[i-1] >= resp.Header.Indices[i] {
			t.Fatalf("reply indices not ascending: %v", resp.Header.Indices)
		}
	}
	got, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs {
		if !bytes.Equal(got[idx], want[idx]) {
			t.Fatalf("chunk %d = %q, want %q", idx, got[idx], want[idx])
		}
	}
}

// TestDispatchPipelineOrder pipelines requests on one connection behind a
// stalled op and requires replies in request order, while a second
// connection is served meanwhile: connections never serialize behind one
// another.
func TestDispatchPipelineOrder(t *testing.T) {
	slow := make(chan struct{})
	h := func(req wire.Message) wire.Message {
		if req.Header.Index%2 == 0 { // even indices stall until released
			<-slow
		}
		return wire.Message{Header: wire.Header{Op: wire.OpOK, Index: req.Header.Index}}
	}
	srv, err := newServer("127.0.0.1:0", h, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	connA, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	// Pipeline on A: slow op first, fast op second.
	if err := wire.Write(connA, wire.Message{Header: wire.Header{Op: wire.OpGet, Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(connA, wire.Message{Header: wire.Header{Op: wire.OpGet, Index: 1}}); err != nil {
		t.Fatal(err)
	}

	// B's fast op must complete while A's slow op still blocks its
	// pipeline.
	connB, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	resp, err := wire.Call(connB, wire.Message{Header: wire.Header{Op: wire.OpGet, Index: 3}})
	if err != nil || resp.Header.Index != 3 {
		t.Fatalf("conn B overtake: %+v, %v", resp.Header, err)
	}

	close(slow)
	for _, wantIdx := range []int{0, 1} {
		resp, err := wire.Read(connA)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Index != wantIdx {
			t.Fatalf("pipelined reply out of order: got index %d, want %d", resp.Header.Index, wantIdx)
		}
	}
}

// TestControlOpOrdersAfterPipelinedOps pipelines puts across every cache
// shard and then a control op (delobj) on one connection: the control op
// must execute after every earlier op — not just reply in order.
func TestControlOpOrdersAfterPipelinedOps(t *testing.T) {
	c := cache.NewSharded(1<<22, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 20; round++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		const puts = 16
		// One buffered burst so the server sees pipelined frames: puts
		// across every shard, then the object-level delete, then the
		// residency probe.
		var burst []byte
		for i := 0; i < puts; i++ {
			frame, err := wire.Encode(wire.Message{
				Header: wire.Header{Op: wire.OpPut, Key: "obj", Index: i}, Body: []byte("data")})
			if err != nil {
				t.Fatal(err)
			}
			burst = append(burst, frame...)
		}
		for _, h := range []wire.Header{{Op: wire.OpDelObj, Key: "obj"}, {Op: wire.OpIndices, Key: "obj"}} {
			frame, err := wire.Encode(wire.Message{Header: h})
			if err != nil {
				t.Fatal(err)
			}
			burst = append(burst, frame...)
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < puts+1; i++ {
			resp, err := wire.Read(conn)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Header.Op != wire.OpOK {
				t.Fatalf("reply %d: %+v", i, resp.Header)
			}
		}
		resp, err := wire.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Header.Indices) != 0 {
			t.Fatalf("round %d: delobj ran before %d pipelined puts finished: residency %v",
				round, len(resp.Header.Indices), resp.Header.Indices)
		}
		conn.Close()
	}
}

// TestStorePipelinedReadYourWrites pipelines a put and a batched mget of
// the same key on one store-server connection: the mget must observe the
// put.
func TestStorePipelinedReadYourWrites(t *testing.T) {
	st := backend.NewStore(geo.Frankfurt)
	srv, err := NewStoreServer("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 20; round++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("obj-%d", round)
		var burst []byte
		put, err := wire.Encode(wire.Message{
			Header: wire.Header{Op: wire.OpPut, Key: key, Index: 5}, Body: []byte("five")})
		if err != nil {
			t.Fatal(err)
		}
		mget, err := wire.Encode(wire.Message{
			Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: []int{5}}})
		if err != nil {
			t.Fatal(err)
		}
		burst = append(append(burst, put...), mget...)
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		if resp, err := wire.Read(conn); err != nil || resp.Header.Op != wire.OpOK {
			t.Fatalf("put reply: %+v, %v", resp.Header, err)
		}
		resp, err := wire.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[5], []byte("five")) {
			t.Fatalf("round %d: pipelined mget missed the put: %v", round, got)
		}
		conn.Close()
	}
}

// BenchmarkDispatchGet measures the serial request/response rhythm every
// pooled client adapter produces.
func BenchmarkDispatchGet(b *testing.B) {
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 64; i++ {
		c.Put(cache.EntryID{Key: "k", Index: i}, make([]byte, 1024))
	}
	rc := NewRemoteCache(srv.Addr())
	defer rc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Get(cache.EntryID{Key: "k", Index: i % 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchPipelined keeps a 16-frame window in flight on one raw
// connection — the pipelining client shape, where the server starts each
// frame as soon as the previous reply is written.
func BenchmarkDispatchPipelined(b *testing.B) {
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 64; i++ {
		c.Put(cache.EntryID{Key: "k", Index: i}, make([]byte, 1024))
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	const window = 16
	b.ResetTimer()
	inFlight := 0
	for i := 0; i < b.N; i++ {
		if err := wire.Write(conn, wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: i % 64}}); err != nil {
			b.Fatal(err)
		}
		inFlight++
		if inFlight == window {
			if _, err := wire.Read(conn); err != nil {
				b.Fatal(err)
			}
			inFlight--
		}
	}
	for ; inFlight > 0; inFlight-- {
		if _, err := wire.Read(conn); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDispatchCleanDrain closes a server with ops still in flight and
// requires Close to return with the in-flight gauge drained.
func TestDispatchCleanDrain(t *testing.T) {
	c := cache.NewSharded(1<<22, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}

	// Blast pipelined frames from several raw connections and never read a
	// reply, so the server is mid-flight everywhere when Close lands.
	var conns []net.Conn
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		for op := 0; op < 32; op++ {
			msg := wire.Message{Header: wire.Header{Op: wire.OpPut, Key: fmt.Sprintf("k%d", i), Index: op},
				Body: []byte("data")}
			if err := wire.Write(conn, msg); err != nil {
				t.Fatal(err)
			}
		}
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain within 10s")
	}
	if depth := srv.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth %d after Close, want 0", depth)
	}
	for _, conn := range conns {
		conn.Close()
	}
}

// TestServerQueueDepthTracksInFlight blocks the handler under requests from
// two connections: the depth gauge must count both while they are held,
// the wire stats op must leave itself out, and the gauge must read 0 once
// the client holds every reply.
func TestServerQueueDepthTracksInFlight(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 2)
	c := cache.NewSharded(1<<20, 4, func() cache.Policy { return cache.NewLRU() })
	depth := new(atomic.Int64)
	sm := newCacheServerMetrics(metrics.NewRegistry(), "", c, nil, depth)
	inner := cacheHandler(c, nil, coherence.NewVersionTable(), sm, wire.NewBufferPool())
	h := func(req wire.Message) wire.Message {
		if req.Header.Op == wire.OpGet {
			arrived <- struct{}{}
			<-release
		}
		return inner(req)
	}
	srv, err := newServer("127.0.0.1:0", h, sm, nil, nil, depth)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var conns []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.Write(conn, wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: i}}); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 requests reached the handler", i)
		}
	}
	if got := srv.QueueDepth(); got != 2 {
		t.Fatalf("depth %d with two handlers blocked, want 2", got)
	}
	stats, err := wire.Call(mustDial(t, srv.Addr()), wire.Message{Header: wire.Header{Op: wire.OpStats}})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Header.Stats["dispatch_queue_depth"]; got != 2 {
		t.Fatalf("wire dispatch_queue_depth = %d with two handlers blocked, want 2", got)
	}
	close(release)
	for _, conn := range conns {
		if resp, err := wire.Read(conn); err != nil || resp.Header.Op != wire.OpNotFound {
			t.Fatalf("reply: %+v, %v", resp.Header, err)
		}
	}
	if got := srv.QueueDepth(); got != 0 {
		t.Fatalf("depth %d after every reply, want 0", got)
	}
}

func mustDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/wire"
)

// TestShardDispatchFanIn hammers one cache server from many connections
// across every cache shard, asserting the data plane stays correct, the
// cache counters stay consistent, and the in-flight gauge drains to zero
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
					if err := cachePut(remote, cache.EntryID{Key: key, Index: idx}, want); err != nil {
						errs <- err
						return
					}
					got, err := cacheGet(remote, cache.EntryID{Key: key, Index: idx})
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
					if err := remote.PutMultiVer(key, chunks, 0); err != nil {
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

	if n := c.ShardCount(); n != shards {
		t.Fatalf("shards = %d, want %d", n, shards)
	}
	stats := c.Stats()
	if stats.Gets <= 0 || stats.Sets <= 0 {
		t.Fatalf("stats show no traffic: %+v", stats)
	}
	if stats.Hits > stats.Gets {
		t.Fatalf("hits %d exceed gets %d", stats.Hits, stats.Gets)
	}
	if depth := srv.QueueDepth(); depth != 0 {
		t.Fatalf("dispatch queue depth = %d after quiesce, want 0", depth)
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
	if err := remote.PutMultiVer("obj", want, 0); err != nil {
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
	if err := wire.Write(connA, wire.Message{Header: wire.Header{Op: wire.OpMGet, Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(connA, wire.Message{Header: wire.Header{Op: wire.OpMGet, Index: 1}}); err != nil {
		t.Fatal(err)
	}

	// B's fast op must complete while A's slow op still blocks its
	// pipeline.
	connB, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	resp, err := wire.Call(connB, wire.Message{Header: wire.Header{Op: wire.OpMGet, Index: 3}})
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
		// One pipelined burst: puts across every shard, then the
		// object-level delete, then the residency probe.
		msgs := make([]wire.Message, 0, puts+2)
		all := make([]int, puts)
		for i := 0; i < puts; i++ {
			all[i] = i
			msgs = append(msgs, mputFrame("obj", map[int][]byte{i: []byte("data")}))
		}
		msgs = append(msgs, wire.Message{Header: wire.Header{Op: wire.OpDelObj, Key: "obj", Ver: uint64(round + 1)}}, mgetFrame("obj", all...))
		replies := pipeline(t, conn, msgs...)
		for i, resp := range replies[:puts+1] {
			if resp.Header.Op != wire.OpOK {
				t.Fatalf("reply %d: %+v", i, resp.Header)
			}
		}
		if probe := replies[puts+1].Header; len(probe.Indices) != 0 {
			t.Fatalf("round %d: delobj ran before %d pipelined puts finished: residency %v",
				round, len(probe.Indices), probe.Indices)
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
		replies := pipeline(t, conn,
			wire.Message{Header: wire.Header{Op: wire.OpPut, Key: key, Index: 5}, Body: []byte("five")},
			mgetFrame(key, 5))
		if put := replies[0].Header; put.Op != wire.OpOK {
			t.Fatalf("put reply: %+v", put)
		}
		resp := replies[1]
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

// TestPipelinedReadYourWrites pipelines mput/mget pairs for many chunks of
// one key on one cache-server connection: replies come back in request
// order, and every mget observes the mput pipelined just before it.
func TestPipelinedReadYourWrites(t *testing.T) {
	srv, err := NewCacheServer("127.0.0.1:0", cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := mustDial(t, srv.Addr())

	const n = 200
	msgs := make([]wire.Message, 0, 2*n)
	for i := 0; i < n; i++ {
		msgs = append(msgs, mputFrame("k", map[int][]byte{i: []byte(fmt.Sprintf("chunk-%d", i))}), mgetFrame("k", i))
	}
	replies := pipeline(t, conn, msgs...)
	for i := 0; i < n; i++ {
		if put := replies[2*i].Header; put.Op != wire.OpOK {
			t.Fatalf("mput %d: %+v", i, put)
		}
		get := replies[2*i+1]
		got, err := wire.UnpackBatch(get.Header.Indices, get.Header.Sizes, get.Body)
		if err != nil {
			t.Fatalf("mget %d: %v", i, err)
		}
		if want := fmt.Sprintf("chunk-%d", i); !bytes.Equal(got[i], []byte(want)) {
			t.Fatalf("mget %d = %q, want %q (reply order broken)", i, got[i], want)
		}
	}
}

// TestPipelinedBatchOps pipelines a 32-chunk mput, a cross-shard mget of
// every chunk and an mget of a missing key on one connection: the batch
// reads back whole and the miss replies ok with no chunks.
func TestPipelinedBatchOps(t *testing.T) {
	srv, err := NewCacheServer("127.0.0.1:0", cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := mustDial(t, srv.Addr())

	chunks := map[int][]byte{}
	indices := make([]int, 0, 32)
	for i := 0; i < 32; i++ {
		chunks[i] = bytes.Repeat([]byte{byte(i)}, 128)
		indices = append(indices, i)
	}
	replies := pipeline(t, conn, mputFrame("obj", chunks), mgetFrame("obj", indices...), mgetFrame("missing", 0))
	if put := replies[0].Header; put.Op != wire.OpOK || len(put.Indices) != len(chunks) {
		t.Fatalf("mput reply %+v, want all %d chunks stored", put, len(chunks))
	}
	got, err := wire.UnpackBatch(replies[1].Header.Indices, replies[1].Header.Sizes, replies[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("got %d chunks, want %d", len(got), len(chunks))
	}
	for i, want := range chunks {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
	if miss := replies[2].Header; miss.Op != wire.OpOK || len(miss.Indices) != 0 {
		t.Fatalf("missing-key mget reply %+v, want ok with no chunks", miss)
	}
}

// TestPipelinedRemoteError pipelines a frame the server rejects ahead of a
// good one on one connection: the bad frame gets its own OpError and the
// frame behind it is still served.
func TestPipelinedRemoteError(t *testing.T) {
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	c.Put(cache.EntryID{Key: "k", Index: 1}, []byte("v"))
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := mustDial(t, srv.Addr())

	replies := pipeline(t, conn, wire.Message{Header: wire.Header{Op: "bogus", Key: "k"}}, mgetFrame("k", 1))
	if bad := replies[0].Header; bad.Op != wire.OpError || !strings.Contains(bad.Error, `"bogus"`) {
		t.Fatalf("bogus op reply %+v, want an OpError naming it", bad)
	}
	good := replies[1]
	if good.Header.Op != wire.OpOK || !bytes.Equal(good.Body, []byte("v")) {
		t.Fatalf("follow-up mget = %+v %q", good.Header, good.Body)
	}
}

// BenchmarkDispatchGet measures the serial request/response rhythm every
// pooled client adapter produces: one single-chunk mget per round trip.
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
		if _, err := cacheGet(rc, cache.EntryID{Key: "k", Index: i % 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchPipelined keeps a 16-frame window of single-chunk mgets
// in flight on one raw connection — the server's capacity under
// pipelining, where it starts each frame as soon as the previous reply is
// written.
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
	frames := make([]wire.Message, 64)
	for i := range frames {
		frames[i] = mgetFrame("k", i)
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
		if err := wire.Write(conn, frames[i%64]); err != nil {
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
			msg := mputFrame(fmt.Sprintf("k%d", i), map[int][]byte{op: []byte("data")})
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
// the /metrics gauge must read the same, and the gauge must read 0 once
// the client holds every reply.
func TestServerQueueDepthTracksInFlight(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 2)
	c := cache.NewSharded(1<<20, 4, func() cache.Policy { return cache.NewLRU() })
	depth := new(atomic.Int64)
	reg := metrics.NewRegistry()
	sm := newCacheServerMetrics(reg, "", c, nil, depth)
	inner := cacheHandler(c, nil, coherence.NewVersionTable(), sm, wire.NewBufferPool())
	h := func(req wire.Message) wire.Message {
		if req.Header.Op == wire.OpMGet {
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
		if err := wire.Write(conn, mgetFrame("k", i)); err != nil {
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
	fam, _ := metrics.SelectFamily(reg.Gather(), metrics.NameServerQueueDepth)
	if s, ok := metrics.SelectSample(fam, map[string]string{"server": "cache"}); !ok || s.Value != 2 {
		t.Fatalf("%s = %v (ok=%v) with two handlers blocked, want 2", metrics.NameServerQueueDepth, s.Value, ok)
	}
	close(release)
	for _, conn := range conns {
		if resp, err := wire.Read(conn); err != nil || resp.Header.Op != wire.OpOK || len(resp.Header.Indices) != 0 {
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

// TestServersRejectRemovedOps sends every opcode the protocol no longer
// declares to each server that used to answer it: the reply is an OpError
// naming the op, and the connection stays open for the op that follows.
func TestServersRejectRemovedOps(t *testing.T) {
	cacheSrv, err := NewCacheServer("127.0.0.1:0", cache.New(1<<20, cache.NewLRU()))
	if err != nil {
		t.Fatal(err)
	}
	defer cacheSrv.Close()
	storeSrv, err := NewStoreServer("127.0.0.1:0", backend.NewStore(geo.Frankfurt))
	if err != nil {
		t.Fatal(err)
	}
	defer storeSrv.Close()
	node := core.NewNode(core.NodeParams{
		Region: geo.Frankfurt, Regions: geo.DefaultRegions(),
		Placement: geo.NewRoundRobin(geo.DefaultRegions(), false),
		K:         9, M: 3, CacheBytes: 90 * 1024, ChunkBytes: 1024,
	})
	hintSrv, err := NewHintServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer hintSrv.Close()

	removed := []string{"stats", "snapshot", "indices", "delete", "mhint"}
	for _, tc := range []struct {
		name    string
		addr    string
		removed []string
		kept    wire.Header // answered after the rejects, on the same connection
		keptOp  string      // its reply op
	}{
		{"cache", cacheSrv.Addr(), append([]string{"get", "put"}, removed...),
			wire.Header{Op: wire.OpMGet, Key: "k", Indices: []int{0}}, wire.OpOK},
		{"store", storeSrv.Addr(), append([]string{"get", "delobj"}, removed...),
			wire.Header{Op: wire.OpMGet, Key: "k", Indices: []int{0}}, wire.OpOK},
		{"hint", hintSrv.Addr(), removed,
			wire.Header{Op: wire.OpHint, Key: "k"}, wire.OpOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := mustDial(t, tc.addr)
			for _, op := range tc.removed {
				resp, err := wire.Call(conn, wire.Message{Header: wire.Header{Op: op, Key: "k", Index: 1}, Body: []byte("x")})
				if resp.Header.Op != wire.OpError || err == nil {
					t.Fatalf("op %q: reply %+v, err %v; want an OpError", op, resp.Header, err)
				}
				if want := fmt.Sprintf("%q", op); !strings.Contains(resp.Header.Error, want) {
					t.Errorf("op %q: error %q does not name the op", op, resp.Header.Error)
				}
			}
			resp, err := wire.Call(conn, wire.Message{Header: tc.kept})
			if err != nil || resp.Header.Op != tc.keptOp {
				t.Fatalf("%s after the rejects: reply %+v, err %v; want %s", tc.kept.Op, resp.Header, err, tc.keptOp)
			}
		})
	}

	// The UDP hint channel answers each datagram on its own; a removed op
	// gets an error reply that names the op and echoes the key.
	udpSrv, err := NewUDPHintServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer udpSrv.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srvAddr, err := net.ResolveUDPAddr("udp", udpSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for _, op := range removed {
		if err := wire.WriteDatagram(client, srvAddr, wire.Message{Header: wire.Header{Op: op, Key: "k"}}); err != nil {
			t.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, _, err := wire.ReadDatagram(client, buf)
		if err != nil || resp.Header.Op != wire.OpError || resp.Header.Key != "k" ||
			!strings.Contains(resp.Header.Error, fmt.Sprintf("%q", op)) {
			t.Fatalf("udp op %q: reply %+v, err %v; want an OpError naming the op for key k", op, resp.Header, err)
		}
	}
}

// TestUDPHinterDiscardsForeignReplies runs the UDP hinter against a server
// that answers every request twice, and against a third socket that sends
// it a forged reply: each call must return its own key's hint, never the
// duplicate left over from the call before or the forged datagram.
func TestUDPHinterDiscardsForeignReplies(t *testing.T) {
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer func() { srv.Close(); <-done }()
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			req, from, err := wire.ReadDatagram(srv, buf)
			if err != nil {
				return
			}
			// The hint names the key's length, so a reply for another key
			// is told apart by value.
			reply := wire.Message{Header: wire.Header{Op: wire.OpOK, Key: req.Header.Key, Indices: []int{len(req.Header.Key)}}}
			_ = wire.WriteDatagram(srv, from, reply)
			_ = wire.WriteDatagram(srv, from, reply)
		}
	}()

	h, err := NewUDPHinter(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, key := range []string{"a", "bbb", "cc"} {
		got, err := h.Hint(key)
		if err != nil || len(got) != 1 || got[0] != len(key) {
			t.Fatalf("Hint(%q) = %v, %v; want [%d]", key, got, err, len(key))
		}
	}

	forger, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	forged := wire.Message{Header: wire.Header{Op: wire.OpOK, Key: "dddd", Indices: []int{99}}}
	if err := wire.WriteDatagram(forger, h.conn.LocalAddr(), forged); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Hint("dddd"); err != nil || len(got) != 1 || got[0] != 4 {
		t.Fatalf("Hint(dddd) = %v, %v; want [4], not the forged reply", got, err)
	}
}

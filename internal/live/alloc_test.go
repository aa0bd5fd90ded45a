package live

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/wire"
)

// legacyMGetReply reproduces the pre-pool server mget reply path byte for
// byte: per-chunk copies out of the cache into a map, PackBatch copying
// the map into one body, Encode copying header and body into one
// contiguous frame, one Write. The paired benchmarks measure the pooled
// path against exactly this.
func legacyMGetReply(c *cache.Cache, w io.Writer, key string, indices []int) error {
	found := make(map[int][]byte, len(indices))
	for _, idx := range indices {
		if b, err := c.Get(cache.EntryID{Key: key, Index: idx}); err == nil {
			found[idx] = b
		}
	}
	if len(found) == 0 {
		return wire.Write(w, wire.Message{Header: wire.Header{Op: wire.OpOK}})
	}
	idxs, sizes, body, err := wire.PackBatch(found)
	if err != nil {
		return err
	}
	return wire.Write(w, wire.Message{
		Header: wire.Header{Op: wire.OpOK, Indices: idxs, Sizes: sizes}, Body: body,
	})
}

// legacyGetReply is the pre-pool single-get reply: cache copy, Encode
// copy, Write.
func legacyGetReply(c *cache.Cache, w io.Writer, key string, index int) error {
	b, err := c.Get(cache.EntryID{Key: key, Index: index})
	if err != nil {
		return wire.Write(w, wire.Message{Header: wire.Header{Op: wire.OpNotFound}})
	}
	return wire.Write(w, wire.Message{Header: wire.Header{Op: wire.OpOK}, Body: b})
}

// benchCache returns a cache warmed with nChunks chunks of chunkBytes each
// under one key, plus the sorted index list.
func benchCache(tb testing.TB, nChunks, chunkBytes int) (*cache.Cache, []int) {
	tb.Helper()
	c := cache.NewSharded(1<<28, 8, func() cache.Policy { return cache.NewLRU() })
	indices := make([]int, nChunks)
	for i := 0; i < nChunks; i++ {
		indices[i] = i
		if err := c.Put(cache.EntryID{Key: "obj", Index: i}, bytes.Repeat([]byte{byte(i)}, chunkBytes)); err != nil {
			tb.Fatal(err)
		}
	}
	return c, indices
}

// pooledMGetReply runs the live handler + vectored writer — the path the
// server actually serves mget on.
func pooledMGetReply(h handler, bp *wire.BufferPool, w io.Writer, key string, indices []int) error {
	resp := h(wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}})
	return wire.WriteVectored(w, resp, bp)
}

const (
	benchChunks     = 16
	benchChunkBytes = 4096
)

// BenchmarkMGetReplyLegacy is the old reply path (chunk map + PackBatch +
// contiguous Encode); BenchmarkMGetReplyPooled is the shipped path
// (GetAppend into one pooled body + vectored write). Compare B/op and
// allocs/op between the two — the PR's headline claim lives here.
func BenchmarkMGetReplyLegacy(b *testing.B) {
	c, indices := benchCache(b, benchChunks, benchChunkBytes)
	b.ReportAllocs()
	b.SetBytes(benchChunks * benchChunkBytes)
	for i := 0; i < b.N; i++ {
		if err := legacyMGetReply(c, io.Discard, "obj", indices); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMGetReplyPooled(b *testing.B) {
	c, indices := benchCache(b, benchChunks, benchChunkBytes)
	bp := wire.NewBufferPool()
	h := cacheHandler(c, nil, coherence.NewVersionTable(), nil, bp)
	b.ReportAllocs()
	b.SetBytes(benchChunks * benchChunkBytes)
	for i := 0; i < b.N; i++ {
		if err := pooledMGetReply(h, bp, io.Discard, "obj", indices); err != nil {
			b.Fatal(err)
		}
	}
	if n := bp.Outstanding(); n != 0 {
		b.Fatalf("benchmark leaked %d pooled buffers", n)
	}
}

// BenchmarkGetReplyLegacy / Pooled: the single-chunk version of the pair.
func BenchmarkGetReplyLegacy(b *testing.B) {
	c, _ := benchCache(b, benchChunks, benchChunkBytes)
	b.ReportAllocs()
	b.SetBytes(benchChunkBytes)
	for i := 0; i < b.N; i++ {
		if err := legacyGetReply(c, io.Discard, "obj", i%benchChunks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetReplyPooled(b *testing.B) {
	c, _ := benchCache(b, benchChunks, benchChunkBytes)
	bp := wire.NewBufferPool()
	h := cacheHandler(c, nil, coherence.NewVersionTable(), nil, bp)
	b.ReportAllocs()
	b.SetBytes(benchChunkBytes)
	for i := 0; i < b.N; i++ {
		resp := h(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "obj", Index: i % benchChunks}})
		if err := wire.WriteVectored(io.Discard, resp, bp); err != nil {
			b.Fatal(err)
		}
	}
	if n := bp.Outstanding(); n != 0 {
		b.Fatalf("benchmark leaked %d pooled buffers", n)
	}
}

// TestMGetReplyAllocReduction pins the headline claim as a test, not just
// a benchmark: the pooled mget reply path must allocate well under half of
// what the legacy path does. Both sides are measured with AllocsPerRun in
// the same process, so race-detector or runtime noise inflates them
// together and the ratio stays meaningful.
func TestMGetReplyAllocReduction(t *testing.T) {
	c, indices := benchCache(t, benchChunks, benchChunkBytes)
	bp := wire.NewBufferPool()
	h := cacheHandler(c, nil, coherence.NewVersionTable(), nil, bp)

	// Warm the pool and the estimator so steady state is what's measured.
	for i := 0; i < 8; i++ {
		if err := pooledMGetReply(h, bp, io.Discard, "obj", indices); err != nil {
			t.Fatal(err)
		}
	}
	pooled := testing.AllocsPerRun(200, func() {
		if err := pooledMGetReply(h, bp, io.Discard, "obj", indices); err != nil {
			t.Fatal(err)
		}
	})
	legacy := testing.AllocsPerRun(200, func() {
		if err := legacyMGetReply(c, io.Discard, "obj", indices); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: legacy %.1f, pooled %.1f", legacy, pooled)
	if pooled > legacy*0.6 {
		t.Fatalf("pooled path allocates %.1f/op vs legacy %.1f/op — less than the required 40%% reduction", pooled, legacy)
	}
	if n := bp.Outstanding(); n != 0 {
		t.Fatalf("leaked %d pooled buffers", n)
	}
}

// TestPooledReplyParity: the pooled handler + vectored writer must emit a
// byte-identical wire frame to the legacy reply path for the same mget —
// framing compatibility is what lets old clients talk to the new server.
func TestPooledReplyParity(t *testing.T) {
	c, indices := benchCache(t, 8, 64)
	bp := wire.NewBufferPool()
	h := cacheHandler(c, nil, coherence.NewVersionTable(), nil, bp)

	var legacy, pooled bytes.Buffer
	if err := legacyMGetReply(c, &legacy, "obj", indices); err != nil {
		t.Fatal(err)
	}
	if err := pooledMGetReply(h, bp, &pooled, "obj", indices); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
		t.Fatal("pooled mget reply frame differs from the legacy framing")
	}

	// Duplicate request indices must collapse exactly like the legacy map
	// did, and a fully-missing batch must reply plain OK.
	dup := []int{3, 1, 3, 1, 5}
	legacy.Reset()
	pooled.Reset()
	if err := legacyMGetReply(c, &legacy, "obj", dup); err != nil {
		t.Fatal(err)
	}
	if err := pooledMGetReply(h, bp, &pooled, "obj", append([]int(nil), dup...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
		t.Fatal("duplicate-index framing differs from legacy")
	}
	legacy.Reset()
	pooled.Reset()
	if err := legacyMGetReply(c, &legacy, "missing", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := pooledMGetReply(h, bp, &pooled, "missing", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
		t.Fatal("all-miss framing differs from legacy")
	}
	if n := bp.Outstanding(); n != 0 {
		t.Fatalf("leaked %d pooled buffers", n)
	}
}

// TestServerPoolNoLeak hammers a live server over every hot op — gets,
// misses, single- and multi-shard mgets, mputs, errors, pipelined and
// pooled-connection clients — then requires the buffer pool to quiesce to
// zero outstanding buffers: every frame read and every reply written gave
// its buffers back.
func TestServerPoolNoLeak(t *testing.T) {
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote := NewRemoteCache(srv.Addr())
	defer remote.Close()
	p, err := DialPipelined(srv.Addr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	chunks := map[int][]byte{}
	for i := 0; i < 32; i++ {
		chunks[i] = bytes.Repeat([]byte{byte(i)}, 512)
	}
	if err := remote.PutMulti("obj", chunks); err != nil {
		t.Fatal(err)
	}
	indices := make([]int, 0, len(chunks))
	for i := range chunks {
		indices = append(indices, i)
	}
	for round := 0; round < 20; round++ {
		if _, err := remote.Get(cache.EntryID{Key: "obj", Index: round % 32}); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Get(cache.EntryID{Key: "missing", Index: 0}); err != cache.ErrNotFound {
			t.Fatalf("miss err = %v", err)
		}
		if _, err := remote.GetMulti("obj", indices); err != nil {
			t.Fatal(err)
		}
		if _, err := p.GetMulti("obj", indices[:4]); err != nil {
			t.Fatal(err)
		}
		// An op the server rejects exercises the error-reply path.
		if _, err := p.Go(wire.Message{Header: wire.Header{Op: "bogus"}}).Wait(); err == nil {
			t.Fatal("bogus op succeeded")
		}
	}
	remote.Close()
	p.Close()

	deadline := time.Now().Add(2 * time.Second)
	for srv.PoolOutstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not quiesce: %d buffers outstanding", srv.PoolOutstanding())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package live

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/wire"
)

func startPipelineServer(t *testing.T) (*Server, *cache.Cache) {
	t.Helper()
	c := cache.NewSharded(1<<24, 8, func() cache.Policy { return cache.NewLRU() })
	srv, err := NewCacheServerOpts("127.0.0.1:0", c, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, c
}

// mputFrame builds the mput request storing chunks under key.
func mputFrame(key string, chunks map[int][]byte) wire.Message {
	indices, sizes, body, err := wire.PackBatch(chunks)
	if err != nil {
		panic(err)
	}
	return wire.Message{Header: wire.Header{Op: wire.OpMPut, Key: key, Indices: indices, Sizes: sizes}, Body: body}
}

// pipeMPut stores chunks under key over the pipelined connection.
func pipeMPut(p *PipelinedCache, key string, chunks map[int][]byte) error {
	_, err := p.Go(mputFrame(key, chunks)).Wait()
	return err
}

// pipeGet fetches one chunk over the pipelined connection.
func pipeGet(p *PipelinedCache, key string, index int) ([]byte, error) {
	resp, err := p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: key, Index: index}}).Wait()
	if err != nil {
		return nil, err
	}
	if resp.Header.Op == wire.OpNotFound {
		return nil, fmt.Errorf("pipelined get %s/%d: not found", key, index)
	}
	return resp.Body, nil
}

// pipeMGet fetches several chunks of one key over the pipelined connection.
func pipeMGet(p *PipelinedCache, key string, indices []int) (map[int][]byte, error) {
	resp, err := p.Go(wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}}).Wait()
	if err != nil {
		return nil, err
	}
	return wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
}

// TestPipelinedReadYourWrites drives puts and gets back to back through
// one pipelined connection: replies must resolve in send order, so a get
// pipelined behind its own put always observes the write.
func TestPipelinedReadYourWrites(t *testing.T) {
	srv, _ := startPipelineServer(t)
	p, err := DialPipelined(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 200
	pending := make([]*PendingReply, 0, 2*n)
	for i := 0; i < n; i++ {
		body := []byte(fmt.Sprintf("chunk-%d", i))
		pending = append(pending, p.Go(mputFrame("k", map[int][]byte{i: body})))
		pending = append(pending, p.Go(wire.Message{
			Header: wire.Header{Op: wire.OpGet, Key: "k", Index: i},
		}))
	}
	for i := 0; i < n; i++ {
		if _, err := pending[2*i].Wait(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		resp, err := pending[2*i+1].Wait()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("chunk-%d", i); !bytes.Equal(resp.Body, []byte(want)) {
			t.Fatalf("get %d = %q, want %q (reply order broken)", i, resp.Body, want)
		}
	}
}

// TestPipelinedBatchOps exercises mput/mget over the pipelined
// connection, including a cross-shard mget that takes the split path.
func TestPipelinedBatchOps(t *testing.T) {
	srv, _ := startPipelineServer(t)
	p, err := DialPipelined(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	chunks := map[int][]byte{}
	for i := 0; i < 32; i++ {
		chunks[i] = bytes.Repeat([]byte{byte(i)}, 128)
	}
	if err := pipeMPut(p, "obj", chunks); err != nil {
		t.Fatal(err)
	}
	indices := make([]int, 0, len(chunks))
	for i := range chunks {
		indices = append(indices, i)
	}
	got, err := pipeMGet(p, "obj", indices)
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
	if _, err := pipeGet(p, "missing", 0); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing get err = %v", err)
	}
}

// TestPipelinedConcurrentCallers hammers one adapter from many goroutines;
// every caller must see its own values (the write lock keeps queue order
// equal to wire order even under contention).
func TestPipelinedConcurrentCallers(t *testing.T) {
	srv, _ := startPipelineServer(t)
	p, err := DialPipelined(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", g)
			for i := 0; i < 100; i++ {
				want := []byte(fmt.Sprintf("%d/%d", g, i))
				if err := pipeMPut(p, key, map[int][]byte{i: want}); err != nil {
					errs <- err
					return
				}
				got, err := pipeGet(p, key, i)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s/%d = %q, want %q", key, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestPipelinedRemoteError: a frame the server rejects resolves its own
// future with the remote error while later pipelined calls still succeed.
func TestPipelinedRemoteError(t *testing.T) {
	srv, c := startPipelineServer(t)
	c.Put(cache.EntryID{Key: "k", Index: 1}, []byte("v"))
	p, err := DialPipelined(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := p.Go(wire.Message{Header: wire.Header{Op: "bogus", Key: "k"}})
	good := p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: 1}})
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("bogus op err = %v", err)
	}
	resp, err := good.Wait()
	if err != nil || !bytes.Equal(resp.Body, []byte("v")) {
		t.Fatalf("follow-up get = %q, %v", resp.Body, err)
	}
}

// silentListener accepts one connection and discards everything written
// to it without ever replying — a server that has wedged.
func silentListener(t *testing.T) (net.Listener, chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}()
	}()
	return ln, conns
}

// TestPipelinedTransportError: when the connection dies, every in-flight
// call resolves with the transport error and later calls fail fast.
func TestPipelinedTransportError(t *testing.T) {
	ln, conns := silentListener(t)
	p, err := DialPipelined(ln.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var pending []*PendingReply
	for i := 0; i < 3; i++ {
		pending = append(pending, p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: i}}))
	}
	(<-conns).Close() // server side dies with three frames in flight
	for i, pr := range pending {
		if _, err := pr.Wait(); err == nil {
			t.Fatalf("in-flight call %d resolved without error", i)
		}
	}
	if _, err := p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k"}}).Wait(); err == nil {
		t.Fatal("post-failure call succeeded")
	}
}

// TestPipelinedCloseUnblocksFullWindow: a Go blocked on a full in-flight
// window (unresponsive server) must be released by a concurrent Close —
// the close-the-conn-first ordering in Close exists for exactly this.
func TestPipelinedCloseUnblocksFullWindow(t *testing.T) {
	ln, conns := silentListener(t)
	p, err := DialPipelined(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The reader holds one entry in hand while it blocks on the socket, so
	// window+1 calls fit before Go blocks on the queue.
	for i := 0; i < 3; i++ {
		p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: i}})
	}
	blocked := make(chan *PendingReply)
	go func() {
		// Window is full: this blocks inside Go until Close tears down.
		blocked <- p.Go(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: "k", Index: 3}})
	}()
	select {
	case <-blocked:
		t.Fatal("third Go did not block on the full window")
	case <-time.After(50 * time.Millisecond):
	}

	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case pr := <-blocked:
		if _, err := pr.Wait(); err == nil {
			t.Fatal("blocked call resolved without error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Go still blocked after Close")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	_ = conns
}

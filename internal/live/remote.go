package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/trace"
	"github.com/agardist/agar/internal/wire"
)

// poolSize is how many concurrent framed connections a pool keeps per
// endpoint. Four matches the paper's thread-pooled client: enough that
// parallel chunk fetches to one server overlap instead of queueing behind a
// single serialized exchange, small enough that a reader fleet does not
// exhaust server file descriptors.
const poolSize = 4

// pool is a bounded lazy-dialing connection pool to one endpoint. Each call
// borrows an idle connection (dialing a new one while under the bound), runs
// one request/response exchange on it, and returns it; transport failures
// discard the borrowed connection so a later call redials.
type pool struct {
	addr string
	// tokens holds one slot per connection the pool may still create;
	// idle holds connections ready for the next call.
	tokens chan struct{}
	idle   chan net.Conn
}

func newPool(addr string) *pool {
	p := &pool{
		addr:   addr,
		tokens: make(chan struct{}, poolSize),
		idle:   make(chan net.Conn, poolSize),
	}
	for i := 0; i < poolSize; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// get borrows an idle connection, dialing a fresh one when the pool is
// under its bound, and blocking for a returned connection at the bound.
func (p *pool) get() (net.Conn, error) {
	select {
	case c := <-p.idle:
		return c, nil
	default:
	}
	select {
	case c := <-p.idle:
		return c, nil
	case <-p.tokens:
		c, err := net.DialTimeout("tcp", p.addr, 5*time.Second)
		if err != nil {
			p.tokens <- struct{}{}
			return nil, fmt.Errorf("live: dial %s: %w", p.addr, err)
		}
		return c, nil
	}
}

// put returns a healthy connection for reuse; discard drops a broken one
// and frees its slot for a redial.
func (p *pool) put(c net.Conn)     { p.idle <- c }
func (p *pool) discard(c net.Conn) { c.Close(); p.tokens <- struct{}{} }

func (p *pool) call(req wire.Message) (wire.Message, error) {
	c, err := p.get()
	if err != nil {
		return wire.Message{}, err
	}
	resp, err := wire.Call(c, req)
	if err != nil && resp.Header.Op != wire.OpError {
		// Transport failure: drop the connection so a later call redials.
		p.discard(c)
	} else {
		p.put(c)
	}
	return resp, err
}

// callCtx is call with trace context stamped onto the request: a sampled
// context rides the optional header fields (and the server answers with
// its span annotations, returned alongside the reply); the zero context
// adds nothing, so the frame stays byte-identical to an untraced call.
func (p *pool) callCtx(ctx trace.Context, req wire.Message) (wire.Message, []trace.Annotation, error) {
	if ctx.Sampled() {
		req.Header.Trace = ctx.TraceID.String()
		req.Header.Span = ctx.SpanID.String()
		req.Header.TFlags = ctx.Flags
	}
	resp, err := p.call(req)
	return resp, resp.Header.Anns, err
}

// close drops every idle connection. Borrowed connections are closed by
// their callers' failure paths; a pool remains usable after close (new
// calls simply redial), matching the old single-connection semantics.
func (p *pool) close() {
	for {
		select {
		case c := <-p.idle:
			c.Close()
			p.tokens <- struct{}{}
		default:
			return
		}
	}
}

// RemoteStore is the client adapter for a region's store server. Calls on
// one adapter run concurrently over a small connection pool.
type RemoteStore struct{ rc *pool }

// NewRemoteStore returns an adapter for the store server at addr.
func NewRemoteStore(addr string) *RemoteStore {
	return &RemoteStore{rc: newPool(addr)}
}

// Close drops the pooled connections.
func (s *RemoteStore) Close() { s.rc.close() }

// Get fetches one chunk.
func (s *RemoteStore) Get(id backend.ChunkID) ([]byte, error) {
	data, _, err := s.GetCtx(trace.Context{}, id)
	return data, err
}

// GetCtx is Get with trace context: a sampled context rides the request
// and the server's span annotations come back with the chunk. The zero
// context sends the byte-identical untraced frame.
func (s *RemoteStore) GetCtx(ctx trace.Context, id backend.ChunkID) ([]byte, []trace.Annotation, error) {
	resp, anns, err := s.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpGet, Key: id.Key, Index: id.Index}})
	if err != nil {
		return nil, anns, err
	}
	if resp.Header.Op == wire.OpNotFound {
		return nil, anns, backend.ErrNotFound
	}
	return resp.Body, anns, nil
}

// GetMulti fetches several chunks of one key in a single round trip and
// returns whichever the region holds, keyed by chunk index — the batched
// form of Get, mirroring the cache protocol's mget.
func (s *RemoteStore) GetMulti(key string, indices []int) (map[int][]byte, error) {
	found, _, err := s.GetMultiCtx(trace.Context{}, key, indices)
	return found, err
}

// GetMultiCtx is GetMulti with trace context (see GetCtx).
func (s *RemoteStore) GetMultiCtx(ctx trace.Context, key string, indices []int) (map[int][]byte, []trace.Annotation, error) {
	if len(indices) == 0 {
		return map[int][]byte{}, nil, nil
	}
	if len(indices) > wire.MaxBatchChunks {
		return nil, nil, fmt.Errorf("live: mget of %d chunks exceeds batch limit %d", len(indices), wire.MaxBatchChunks)
	}
	resp, anns, err := s.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}})
	if err != nil {
		return nil, anns, err
	}
	found, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
	return found, anns, err
}

// Put stores one chunk.
func (s *RemoteStore) Put(id backend.ChunkID, data []byte) error {
	_, err := s.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpPut, Key: id.Key, Index: id.Index},
		Body:   data,
	})
	return err
}

// Stats fetches the server's counters.
func (s *RemoteStore) Stats() (map[string]int64, error) {
	resp, err := s.rc.call(wire.Message{Header: wire.Header{Op: wire.OpStats}})
	if err != nil {
		return nil, err
	}
	return resp.Header.Stats, nil
}

// RemoteCache is the client adapter for a chunk cache server. Calls on one
// adapter run concurrently over a small connection pool.
type RemoteCache struct {
	rc *pool
	// origin, when set, names the calling client's region on batched reads,
	// so a peer cache server can account cooperative traffic separately
	// from its own region's clients.
	origin string
}

// NewRemoteCache returns an adapter for the cache server at addr.
func NewRemoteCache(addr string) *RemoteCache {
	return &RemoteCache{rc: newPool(addr)}
}

// NewPeerRemoteCache returns an adapter for a cooperative peer's cache
// server that identifies its reads as coming from the origin region.
func NewPeerRemoteCache(addr, origin string) *RemoteCache {
	return &RemoteCache{rc: newPool(addr), origin: origin}
}

// Close drops the pooled connections.
func (c *RemoteCache) Close() { c.rc.close() }

// Get fetches one cached chunk.
func (c *RemoteCache) Get(id cache.EntryID) ([]byte, error) {
	resp, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpGet, Key: id.Key, Index: id.Index}})
	if err != nil {
		return nil, err
	}
	if resp.Header.Op == wire.OpNotFound {
		return nil, cache.ErrNotFound
	}
	return resp.Body, nil
}

// Put inserts one chunk.
func (c *RemoteCache) Put(id cache.EntryID, data []byte) error {
	_, err := c.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpPut, Key: id.Key, Index: id.Index},
		Body:   data,
	})
	return err
}

// GetMulti fetches several chunks of one key in a single round trip and
// returns whichever were resident, keyed by chunk index — the batched form
// of Get. Missing chunks are simply absent from the result.
func (c *RemoteCache) GetMulti(key string, indices []int) (map[int][]byte, error) {
	found, _, err := c.GetMultiCtx(trace.Context{}, key, indices)
	return found, err
}

// GetMultiCtx is GetMulti with trace context: a sampled context rides the
// request and the server's span annotations (its execute time) come back
// with the chunks. The zero context
// sends the byte-identical untraced frame.
func (c *RemoteCache) GetMultiCtx(ctx trace.Context, key string, indices []int) (map[int][]byte, []trace.Annotation, error) {
	if len(indices) == 0 {
		return map[int][]byte{}, nil, nil
	}
	if len(indices) > wire.MaxBatchChunks {
		return nil, nil, fmt.Errorf("live: mget of %d chunks exceeds batch limit %d", len(indices), wire.MaxBatchChunks)
	}
	resp, anns, err := c.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices, Region: c.origin}})
	if err != nil {
		return nil, anns, err
	}
	found, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
	return found, anns, err
}

// SendDigest pushes one cooperative residency digest frame — full or delta
// — to the cache server and waits for its acknowledgement; the live
// transport behind coop.Advertiser. The ack echoes the mirror's resulting
// sequence, so a rejected delta (the peer's mirror was not at the delta's
// base) or a stale full frame surfaces as an error and the advertiser
// falls back to a full digest on its next push.
func (c *RemoteCache) SendDigest(d coop.Digest) error {
	resp, err := c.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpDigest, Region: d.Region, Seq: d.Seq, Groups: d.Groups,
			Delta: d.Delta, Base: d.Base, KeyVers: d.KeyVers},
	})
	if err != nil {
		return err
	}
	if resp.Header.Op != wire.OpDigestAck {
		return fmt.Errorf("live: digest got %q, want ack", resp.Header.Op)
	}
	if resp.Header.Seq != d.Seq {
		return fmt.Errorf("live: digest ack seq %d, want %d", resp.Header.Seq, d.Seq)
	}
	return nil
}

// PutMulti inserts several chunks of one key in a single round trip — the
// batched form of Put. Chunks the server's cache refuses (admission filter,
// full shard) are skipped server-side without failing the batch.
func (c *RemoteCache) PutMulti(key string, chunks map[int][]byte) error {
	if len(chunks) == 0 {
		return nil
	}
	indices, sizes, body, err := wire.PackBatch(chunks)
	if err != nil {
		return err
	}
	_, err = c.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpMPut, Key: key, Indices: indices, Sizes: sizes},
		Body:   body,
	})
	return err
}

// IndicesOf lists the resident chunk indices for a key.
func (c *RemoteCache) IndicesOf(key string) ([]int, error) {
	resp, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpIndices, Key: key}})
	if err != nil {
		return nil, err
	}
	return resp.Header.Indices, nil
}

// DeleteObject removes every chunk of a key (write invalidation).
func (c *RemoteCache) DeleteObject(key string) error {
	_, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpDelObj, Key: key}})
	return err
}

// Snapshot fetches the cache's full contents summary.
func (c *RemoteCache) Snapshot() (map[string][]int, error) {
	resp, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpSnapshot}})
	if err != nil {
		return nil, err
	}
	return resp.Header.Groups, nil
}

// Stats fetches cache counters.
func (c *RemoteCache) Stats() (map[string]int64, error) {
	resp, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpStats}})
	if err != nil {
		return nil, err
	}
	return resp.Header.Stats, nil
}

// RemoteHinter asks an Agar node for caching hints over TCP.
type RemoteHinter struct{ rc *pool }

// NewRemoteHinter returns an adapter for the hint server at addr.
func NewRemoteHinter(addr string) *RemoteHinter {
	return &RemoteHinter{rc: newPool(addr)}
}

// Close drops the pooled connections.
func (h *RemoteHinter) Close() { h.rc.close() }

// Hint requests the caching hint for a key.
func (h *RemoteHinter) Hint(key string) ([]int, error) {
	indices, _, err := h.HintCtx(trace.Context{}, key)
	return indices, err
}

// HintCtx is Hint with trace context (see RemoteCache.GetMultiCtx); the
// hint server's execute annotation comes back with the hint, so a merged
// read trace shows real server time for the hint exchange too.
func (h *RemoteHinter) HintCtx(ctx trace.Context, key string) ([]int, []trace.Annotation, error) {
	resp, anns, err := h.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpHint, Key: key}})
	if err != nil {
		return nil, anns, err
	}
	return resp.Header.Indices, anns, nil
}

// HintMulti resolves the caching hints for several keys in one round trip —
// the batched form of Hint, for readers that know their next keys (prefetch
// pipelines, scan workloads). Every requested key appears in the result.
func (h *RemoteHinter) HintMulti(keys []string) (map[string][]int, error) {
	if len(keys) == 0 {
		return map[string][]int{}, nil
	}
	if len(keys) > wire.MaxBatchChunks {
		return nil, fmt.Errorf("live: mhint of %d keys exceeds batch limit %d", len(keys), wire.MaxBatchChunks)
	}
	resp, err := h.rc.call(wire.Message{Header: wire.Header{Op: wire.OpMHint, Keys: keys}})
	if err != nil {
		return nil, err
	}
	out := resp.Header.Groups
	if out == nil {
		out = map[string][]int{}
	}
	return out, nil
}

// UDPHinter asks for hints over UDP, like the paper's prototype.
type UDPHinter struct {
	addr *net.UDPAddr

	mu   sync.Mutex
	conn net.PacketConn
	buf  []byte
}

// NewUDPHinter returns a UDP hint client for the server at addr.
func NewUDPHinter(addr string) (*UDPHinter, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &UDPHinter{addr: ua, conn: conn, buf: make([]byte, 64<<10)}, nil
}

// Close releases the socket.
func (h *UDPHinter) Close() { h.conn.Close() }

// Hint requests the caching hint for a key, with a 2-second timeout.
func (h *UDPHinter) Hint(key string) ([]int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := wire.WriteDatagram(h.conn, h.addr, wire.Message{Header: wire.Header{Op: wire.OpHint, Key: key}})
	if err != nil {
		return nil, err
	}
	h.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, _, err := wire.ReadDatagram(h.conn, h.buf)
	if err != nil {
		return nil, err
	}
	if resp.Header.Op == wire.OpError {
		return nil, fmt.Errorf("live: hint error: %s", resp.Header.Error)
	}
	return resp.Header.Indices, nil
}

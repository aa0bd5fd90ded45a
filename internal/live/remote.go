package live

import (
	"fmt"
	"net"
	"sync"
	"time"

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

// GetMulti fetches several chunks of one key in a single round trip and
// returns whichever the region holds, keyed by chunk index.
func (s *RemoteStore) GetMulti(key string, indices []int) (map[int][]byte, error) {
	found, _, _, _, err := s.GetMultiVerCtx(trace.Context{}, key, indices)
	return found, err
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

// GetMulti fetches several chunks of one key in a single round trip and
// returns whichever were resident, keyed by chunk index. Missing chunks are
// simply absent from the result.
func (c *RemoteCache) GetMulti(key string, indices []int) (map[int][]byte, error) {
	found, _, _, err := c.GetMultiVerCtx(trace.Context{}, key, indices)
	return found, err
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

// HintCtx is Hint with trace context: a sampled context rides the request
// and the hint server's execute annotation comes back with the hint, so a
// merged read trace shows real server time for the hint exchange too. The
// zero context sends the byte-identical untraced frame.
func (h *RemoteHinter) HintCtx(ctx trace.Context, key string) ([]int, []trace.Annotation, error) {
	resp, anns, err := h.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpHint, Key: key}})
	if err != nil {
		return nil, anns, err
	}
	return resp.Header.Indices, anns, nil
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

// Hint requests the caching hint for a key, with a 2-second timeout. Every
// reply names its key, so a datagram from another sender, for another key
// (a duplicated reply, or the late answer to an earlier call that timed
// out), or that does not decode is discarded, and the read goes on until
// the deadline.
func (h *UDPHinter) Hint(key string) ([]int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := wire.WriteDatagram(h.conn, h.addr, wire.Message{Header: wire.Header{Op: wire.OpHint, Key: key}})
	if err != nil {
		return nil, err
	}
	h.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		resp, from, err := wire.ReadDatagram(h.conn, h.buf)
		if from == nil {
			return nil, err // the socket failed or the deadline passed
		}
		ua, ok := from.(*net.UDPAddr)
		if err != nil || !ok || !ua.IP.Equal(h.addr.IP) || ua.Port != h.addr.Port || resp.Header.Key != key {
			continue
		}
		if resp.Header.Op == wire.OpError {
			return nil, fmt.Errorf("live: hint error: %s", resp.Header.Error)
		}
		return resp.Header.Indices, nil
	}
}

// Package live runs Agar's roles over real sockets: per-region backend
// store servers, memcached-style chunk cache servers, and the Agar node's
// hint service (TCP and UDP). It also provides the matching remote client
// adapters and a network read path with genuinely parallel chunk fetches.
//
// Every server runs one memcached-style loop per connection (see Server).
//
// The experiment harness measures on the in-process simulator; this package
// exists so the system can actually be deployed — integration tests and the
// live-cluster example run every role on localhost with scaled wide-area
// delays injected client-side.
package live

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/hlc"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/trace"
	"github.com/agardist/agar/internal/wire"
)

// handler processes one request message into one response message. Handlers
// must be safe for concurrent use: every connection goroutine invokes them
// in parallel.
type handler func(wire.Message) wire.Message

// Server is a generic framed-TCP request/response server: each connection's
// goroutine decodes, executes and answers its own frames serially, so
// replies leave in request order and concurrency exists across connections.
// Handlers run under the storage layer's own locks (the cache's shard
// stripes), so two connections touching different shards never serialize.
type Server struct {
	ln     net.Listener
	handle handler
	sm     *serverMetrics
	// rec is the server's flight recorder (nil when disabled): every
	// finished op is offered to it.
	rec *trace.Recorder
	// bp recycles frame, header, and reply-body buffers across this
	// server's connections: every decoded request borrows its frame from
	// here (released after the handler runs) and every reply releases its
	// pooled header/body once the bytes leave the socket. One pool per
	// server keeps Outstanding a per-server leak detector for tests.
	bp *wire.BufferPool
	// depth counts requests decoded whose handler has not yet returned,
	// across every connection — the dispatch_queue_depth gauge.
	depth *atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newServer starts serving on addr ("127.0.0.1:0" for an ephemeral port).
// sm (nil for the uninstrumented baseline) times each op's execution; rec
// (nil to disable) is the flight recorder; bp nil creates a private buffer
// pool (cache servers pass the pool their handler already sizes reply
// bodies from, so one pool serves the whole server); depth nil creates a
// private in-flight gauge (cache and store servers pass the one their
// metrics export).
func newServer(addr string, h handler, sm *serverMetrics, rec *trace.Recorder, bp *wire.BufferPool, depth *atomic.Int64) (*Server, error) {
	if bp == nil {
		bp = wire.NewBufferPool()
	}
	if depth == nil {
		depth = new(atomic.Int64)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handle: h, sm: sm, rec: rec, bp: bp, depth: depth, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// PoolOutstanding reports the server's pooled buffers currently between
// Get and Put — the leak-detection hook: a quiesced server (every request
// answered, every reply written) must report zero.
func (s *Server) PoolOutstanding() int64 { return s.bp.Outstanding() }

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// QueueDepth reports the requests decoded and not yet answered (handler
// still running) across all connections — the same gauge OpStats exposes
// as dispatch_queue_depth.
func (s *Server) QueueDepth() int64 { return s.depth.Load() }

// Close stops the listener, closes active connections and waits for all
// connection goroutines to exit, so every accepted op has been answered or
// discarded with its connection by the time Close returns. It then
// verifies the server's buffer pool has drained: every decoded request
// and every written (or discarded) reply must have released its pooled
// buffers by now, so a non-zero count is a leak and panics loudly instead
// of silently growing in production.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.ln.Close()
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.verifyPoolDrained()
}

// verifyPoolDrained panics if pooled buffers are still outstanding after a
// full shutdown — the drain-and-verify leak check Close runs.
func (s *Server) verifyPoolDrained() {
	if n := s.bp.Outstanding(); n != 0 {
		panic(fmt.Sprintf("live: server %s closed with %d pooled buffers outstanding (buffer leak)", s.ln.Addr(), n))
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// connReadBuffer sizes the per-connection read buffer frames are decoded
// out of.
const connReadBuffer = 32 << 10

// serveConn is the memcached-style connection loop: decode one frame, run
// it, write its reply, repeat. A pipelining client's later frames wait in
// the socket buffer, so replies leave in request order and every op
// executes after the ones before it on the same connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, connReadBuffer)
	for {
		req, err := wire.ReadPooled(br, s.bp)
		if err != nil {
			return
		}
		s.depth.Add(1)
		resp := runInline(s.handle, s.sm, s.rec, req)
		s.depth.Add(-1) // before the write: a client holding its reply sees the gauge settled
		if err := wire.WriteVectored(conn, resp, s.bp); err != nil {
			return
		}
	}
}

// runInline executes one request on the caller's goroutine. The op is
// handled, observed (a single "exec" annotation), offered to the flight
// recorder, and its reply annotated when the request carried trace
// context. With no metrics, no recorder, and no trace context the call
// is the bare fast path: handle and release, no clock reads.
func runInline(h handler, sm *serverMetrics, rec *trace.Recorder, req wire.Message) wire.Message {
	traced := req.Header.Trace != ""
	if sm == nil && rec == nil && !traced {
		resp := h(req)
		req.Release()
		return resp
	}
	op, tid := req.Header.Op, req.Header.Trace
	start := time.Now()
	resp := h(req)
	exec := time.Since(start)
	sm.observe(op, exec, tid)
	req.Release()
	var anns []trace.Annotation
	if traced || rec != nil {
		anns = []trace.Annotation{{Name: "exec", OffUS: 0, DurUS: exec.Microseconds()}}
	}
	if traced {
		resp.Header.Anns = anns
	}
	if rec != nil {
		rec.Observe(op, exec, tid, respErr(resp), anns)
	}
	return resp
}

// respErr extracts a reply's error message for the flight recorder ("" for
// non-error replies).
func respErr(resp wire.Message) string {
	if resp.Header.Op == wire.OpError {
		return resp.Header.Error
	}
	return ""
}

// NewStoreServer serves one region's backend store.
func NewStoreServer(addr string, store *backend.Store) (*Server, error) {
	return NewStoreServerOpts(addr, store, ServerOptions{})
}

// NewStoreServerOpts serves one region's backend store with full options:
// a shared metrics registry, a region label and a flight recorder. Metrics
// are always collected — the wire stats op is built from them — so passing
// a registry only decides where /metrics scrapes can see them.
func NewStoreServerOpts(addr string, store *backend.Store, opts ServerOptions) (*Server, error) {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	depth := new(atomic.Int64)
	sm := newStoreServerMetrics(reg, opts.Region, store, depth)
	return newServer(addr, storeHandler(store, sm), sm, opts.Recorder, nil, depth)
}

// storeHandler builds the store server's request handler; sm supplies the
// registry-backed sources the OpStats reply is built from.
func storeHandler(store *backend.Store, sm *serverMetrics) handler {
	return func(req wire.Message) wire.Message {
		id := backend.ChunkID{Key: req.Header.Key, Index: req.Header.Index}
		switch req.Header.Op {
		case wire.OpGet:
			data, ver, err := store.GetVer(id)
			if errors.Is(err, backend.ErrNotFound) {
				return wire.Message{Header: wire.Header{Op: wire.OpNotFound}}
			}
			if err != nil {
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Ver: ver}, Body: data}
		case wire.OpPut:
			if err := store.PutVer(id, req.Body, req.Header.Ver); err != nil {
				var stale *backend.StaleError
				if errors.As(err, &stale) {
					sm.staleReject()
					return wire.Message{Header: wire.Header{Op: wire.OpStale, Ver: stale.Cur}}
				}
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpMGet:
			// Batched store read: one frame however many chunks of the key
			// this region holds — and, when the store is backed by a remote
			// blob gateway, one upstream round trip instead of N.
			if len(req.Header.Indices) > wire.MaxBatchChunks {
				return wire.ErrorMessage(fmt.Errorf("store: mget of %d chunks exceeds batch limit %d",
					len(req.Header.Indices), wire.MaxBatchChunks))
			}
			found, vers, floor, err := store.GetMultiVer(req.Header.Key, req.Header.Indices)
			if err != nil {
				return wire.ErrorMessage(err)
			}
			if len(found) == 0 {
				return wire.Message{Header: wire.Header{Op: wire.OpOK, Ver: floor}}
			}
			// The adapter-returned chunks go out as body segments — one
			// vectored write, no copy into a contiguous frame.
			indices, sizes, segs, err := wire.PackBatchViews(found)
			if err != nil {
				return wire.ErrorMessage(err)
			}
			h := wire.Header{Op: wire.OpOK, Indices: indices, Sizes: sizes, Ver: floor}
			if vers != nil {
				h.Vers = make([]uint64, len(indices))
				for i, idx := range indices {
					h.Vers[i] = vers[idx]
				}
			}
			return wire.Message{Header: h, Segments: segs}
		case wire.OpDelObj:
			// Versioned object invalidation: remove the chunks and persist
			// the delete's version as a tombstone floor (legacy unversioned
			// when Ver is zero).
			if _, err := store.DeleteObjectVer(req.Header.Key, req.Header.Ver); err != nil {
				var stale *backend.StaleError
				if errors.As(err, &stale) {
					sm.staleReject()
					return wire.Message{Header: wire.Header{Op: wire.OpStale, Ver: stale.Cur}}
				}
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpDelete:
			if _, err := store.DeleteChecked(id); err != nil {
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpStats:
			// StatsChecked still runs first so a down adapter propagates its
			// error; the payload itself comes from the same registry sources
			// /metrics exposes, keeping the two surfaces in lockstep.
			if _, err := store.StatsChecked(); err != nil {
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Stats: sm.statsMap()}}
		default:
			return wire.ErrorMessage(fmt.Errorf("store: unknown op %q", req.Header.Op))
		}
	}
}

// NewCacheServer serves a chunk cache with memcached-like semantics.
func NewCacheServer(addr string, c *cache.Cache) (*Server, error) {
	return NewCacheServerOpts(addr, c, nil, ServerOptions{})
}

// NewCacheServerCoop serves a chunk cache that also speaks the cooperative
// mesh protocol: incoming OpDigest frames maintain the table's per-peer
// residency mirrors, batched reads tagged with a foreign region are
// accounted as peer traffic, and OpStats reports peer_hits, peer_misses,
// digests and digest_age_ms alongside the cache counters.
func NewCacheServerCoop(addr string, c *cache.Cache, table *coop.Table) (*Server, error) {
	return NewCacheServerOpts(addr, c, table, ServerOptions{})
}

// NewCacheServerOpts serves a chunk cache (cooperative when table is
// non-nil) with full options: a shared metrics registry, a region label, a
// flight recorder and a version-floor table. Metrics are always collected —
// the wire stats op is built from them — so passing a registry only decides
// where /metrics scrapes can see them.
func NewCacheServerOpts(addr string, c *cache.Cache, table *coop.Table, opts ServerOptions) (*Server, error) {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	depth := new(atomic.Int64)
	sm := newCacheServerMetrics(reg, opts.Region, c, table, depth)
	bp := wire.NewBufferPool()
	vt := opts.Versions
	if vt == nil {
		vt = coherence.NewVersionTable()
	}
	return newServer(addr, cacheHandler(c, table, vt, sm, bp), sm, opts.Recorder, bp, depth)
}

// meanEntryRefresh is how many reply-size estimates reuse one cached mean
// entry size before rereading it from the cache.
const meanEntryRefresh = 512

// cacheHandler builds the cache server's request handler; table is nil for
// non-cooperative deployments, which reject digest frames; vt is the
// server's version-floor table — versioned mutations are admitted against
// it and digest KeyVers raise it, dropping outdated cached chunks; sm
// supplies the registry-backed sources the OpStats reply is built from; bp
// supplies pooled reply-body buffers for the get/mget hot path (the
// messages own them, and the serve loop's WriteVectored releases them
// after the bytes leave the socket).
func cacheHandler(c *cache.Cache, table *coop.Table, vt *coherence.VersionTable, sm *serverMetrics, bp *wire.BufferPool) handler {
	// est sizes pooled reply buffers from the cache's mean entry size,
	// refreshed every meanEntryRefresh ops — MeanEntryBytes walks every
	// shard lock, far too heavy per request. An undershot estimate only
	// costs one append regrow; the grown buffer still returns to the pool.
	var estTick atomic.Uint64
	var meanEntry atomic.Int64
	est := func() int {
		if estTick.Add(1)%meanEntryRefresh == 1 {
			meanEntry.Store(int64(c.MeanEntryBytes()))
		}
		if v := meanEntry.Load(); v > 0 {
			return int(v)
		}
		return 512
	}
	return func(req wire.Message) wire.Message {
		id := cache.EntryID{Key: req.Header.Key, Index: req.Header.Index}
		switch req.Header.Op {
		case wire.OpGet:
			// The chunk copies straight into a pooled buffer under the shard
			// lock — no per-get allocation once the pool is warm.
			buf, ver, ok := c.GetAppendVer(id, bp.Get(est())[:0])
			if !ok {
				bp.Put(buf)
				return wire.Message{Header: wire.Header{Op: wire.OpNotFound}}
			}
			resp := wire.Message{Header: wire.Header{Op: wire.OpOK, Ver: ver}, Body: buf}
			resp.Own(bp, buf)
			return resp
		case wire.OpPut:
			if ver := req.Header.Ver; ver != 0 {
				// Versioned insert: refused below the key's floor, and a
				// newer version drops the older chunks it outdates.
				if ok, cur := vt.Admit(req.Header.Key, hlc.Timestamp(ver)); !ok {
					sm.staleReject()
					return wire.Message{Header: wire.Header{Op: wire.OpStale, Ver: uint64(cur)}}
				}
				if err := c.PutVer(id, req.Body, ver); err != nil {
					return wire.ErrorMessage(err)
				}
				if vt.Observe(req.Header.Key, hlc.Timestamp(ver)) {
					if c.DropObjectBelow(req.Header.Key, ver) > 0 {
						sm.invalidated(1)
					}
				}
				return wire.Message{Header: wire.Header{Op: wire.OpOK}}
			}
			if err := c.Put(id, req.Body); err != nil {
				return wire.ErrorMessage(err)
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpMGet:
			n := len(req.Header.Indices)
			if n > wire.MaxBatchChunks {
				return wire.ErrorMessage(fmt.Errorf("cache: mget of %d chunks exceeds batch limit %d",
					n, wire.MaxBatchChunks))
			}
			// Every found chunk appends into one pooled body under its shard
			// lock: no per-chunk allocation, no chunk map, no PackBatch copy.
			// Sorting the request's indices up front (the frame is ours until
			// release) makes the reply framing ascending — byte-identical to
			// the PackBatch layout the parity tests pin down — and
			// lets duplicate request indices collapse like the map did.
			sort.Ints(req.Header.Indices)
			body := bp.Get(n * est())[:0]
			indices := make([]int, 0, n)
			sizes := make([]int, 0, n)
			// vers stays nil until a versioned chunk appears, so the
			// unversioned hot path allocates nothing extra and its reply
			// frames stay byte-identical.
			var vers []uint64
			for i, idx := range req.Header.Indices {
				if i > 0 && idx == req.Header.Indices[i-1] {
					continue
				}
				mark := len(body)
				b, ver, ok := c.GetAppendVer(cache.EntryID{Key: req.Header.Key, Index: idx}, body)
				body = b
				if ok {
					indices = append(indices, idx)
					sizes = append(sizes, len(body)-mark)
					if ver != 0 && vers == nil {
						vers = make([]uint64, len(indices)-1, n)
					}
					if vers != nil {
						vers = append(vers, ver)
					}
				}
			}
			if table != nil && req.Header.Region != "" {
				// A foreign-region client reading through the coop mesh:
				// account the served and advertised-but-gone chunks.
				table.RecordPeerRead(len(indices), n-len(indices))
			}
			if len(indices) == 0 {
				bp.Put(body)
				return wire.Message{Header: wire.Header{Op: wire.OpOK}}
			}
			resp := wire.Message{Header: wire.Header{Op: wire.OpOK, Indices: indices, Sizes: sizes, Vers: vers}, Body: body}
			resp.Own(bp, body)
			return resp
		case wire.OpMPut:
			// Views, not copies: the chunks alias the request frame, which
			// stays owned until after the handler returns, and c.Put copies
			// on insert.
			chunks, err := wire.UnpackBatchViews(req.Header.Indices, req.Header.Sizes, req.Body)
			if err != nil {
				return wire.ErrorMessage(err)
			}
			// Best-effort batch insert, like a memcached multi-set: chunks the
			// cache refuses (admission filter, full shard) are skipped, and
			// the response lists what actually landed.
			ver := req.Header.Ver
			if ver != 0 {
				if ok, cur := vt.Admit(req.Header.Key, hlc.Timestamp(ver)); !ok {
					sm.staleReject()
					return wire.Message{Header: wire.Header{Op: wire.OpStale, Ver: uint64(cur)}}
				}
			}
			stored := make([]int, 0, len(chunks))
			for _, idx := range sortedIndices(chunks) {
				cid := cache.EntryID{Key: req.Header.Key, Index: idx}
				if err := c.PutVer(cid, chunks[idx], ver); err == nil && c.Contains(cid) {
					stored = append(stored, idx)
				}
			}
			if ver != 0 && vt.Observe(req.Header.Key, hlc.Timestamp(ver)) {
				if c.DropObjectBelow(req.Header.Key, ver) > 0 {
					sm.invalidated(1)
				}
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Indices: stored}}
		case wire.OpDelete:
			c.Delete(id)
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpDelObj:
			if ver := req.Header.Ver; ver != 0 {
				// Versioned invalidation: raise the floor and drop every
				// cached chunk the write outdated; a delete older than the
				// floor is refused, never applied out of order.
				if ok, cur := vt.Admit(req.Header.Key, hlc.Timestamp(ver)); !ok {
					sm.staleReject()
					return wire.Message{Header: wire.Header{Op: wire.OpStale, Ver: uint64(cur)}}
				}
				vt.Observe(req.Header.Key, hlc.Timestamp(ver))
				if c.DropObjectBelow(req.Header.Key, ver) > 0 {
					sm.invalidated(1)
				}
				return wire.Message{Header: wire.Header{Op: wire.OpOK}}
			}
			c.DeleteObject(req.Header.Key)
			return wire.Message{Header: wire.Header{Op: wire.OpOK}}
		case wire.OpIndices:
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Indices: c.IndicesOf(req.Header.Key)}}
		case wire.OpSnapshot:
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Groups: c.Snapshot()}}
		case wire.OpDigest:
			if table == nil {
				return wire.ErrorMessage(fmt.Errorf("cache: digest from %q but cooperative mesh is disabled", req.Header.Region))
			}
			if req.Header.Region == "" {
				return wire.ErrorMessage(fmt.Errorf("cache: digest without a region"))
			}
			// The ack carries the mirror's sequence after the apply: for an
			// accepted frame that equals the frame's Seq; for a stale frame
			// or a rejected delta it does not, which tells the advertiser to
			// resend in full.
			table.Apply(coop.Digest{Region: req.Header.Region, Seq: req.Header.Seq,
				Groups: req.Header.Groups, Delta: req.Header.Delta, Base: req.Header.Base,
				KeyVers: req.Header.KeyVers})
			if len(req.Header.KeyVers) > 0 {
				// Invalidations ride the digest: every advertised version
				// raises the local floor, dropping the cached chunks it
				// outdates; the newest version's wall-clock age is the
				// cross-region staleness this node observes.
				var newest uint64
				dropped := 0
				for key, ver := range req.Header.KeyVers {
					if ver > newest {
						newest = ver
					}
					if vt.Observe(key, hlc.Timestamp(ver)) && c.DropObjectBelow(key, ver) > 0 {
						dropped++
					}
				}
				sm.invalidated(dropped)
				sm.observeVersionLag(time.Now().UnixMilli() - hlc.Timestamp(newest).WallMS())
			}
			return wire.Message{Header: wire.Header{
				Op: wire.OpDigestAck, Seq: table.Mirror(req.Header.Region).Seq(),
			}}
		case wire.OpStats:
			// Built from the same registry sources /metrics exposes (the
			// cache's own atomics, the coop table, the dispatch gauge), so
			// the wire payload and a scrape can never disagree.
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Stats: sm.statsMap()}}
		default:
			return wire.ErrorMessage(fmt.Errorf("cache: unknown op %q", req.Header.Op))
		}
	}
}

// NewHintServer serves an Agar node's request-monitor interface over TCP:
// single-key OpHint and the batched OpMHint, which resolves several keys'
// hints in one frame (each key still records one monitored access). The
// UDP channel stays single-key — one hint per datagram, like the paper's.
func NewHintServer(addr string, node *core.Node) (*Server, error) {
	return NewHintServerRec(addr, node, nil)
}

// NewHintServerRec is NewHintServer with a flight recorder attached, so a
// cluster's hint exchanges land in the same /debug/traces retention as its
// cache and store ops.
func NewHintServerRec(addr string, node *core.Node, rec *trace.Recorder) (*Server, error) {
	return newServer(addr, func(req wire.Message) wire.Message {
		switch req.Header.Op {
		case wire.OpHint:
			hint := node.HandleRead(req.Header.Key)
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Key: hint.Key, Indices: hint.CacheChunks}}
		case wire.OpMHint:
			if len(req.Header.Keys) > wire.MaxBatchChunks {
				return wire.ErrorMessage(fmt.Errorf("hint: mhint of %d keys exceeds batch limit %d",
					len(req.Header.Keys), wire.MaxBatchChunks))
			}
			groups := make(map[string][]int, len(req.Header.Keys))
			for _, key := range req.Header.Keys {
				hint := node.HandleRead(key)
				chunks := hint.CacheChunks
				if chunks == nil {
					chunks = []int{} // present-but-empty: the key was resolved
				}
				groups[key] = chunks
			}
			return wire.Message{Header: wire.Header{Op: wire.OpOK, Groups: groups}}
		default:
			return wire.ErrorMessage(fmt.Errorf("hint: unknown op %q", req.Header.Op))
		}
	}, nil, rec, nil, nil)
}

// UDPHintServer serves hints over UDP, the paper's low-overhead channel
// between clients and the request monitor.
type UDPHintServer struct {
	conn net.PacketConn
	wg   sync.WaitGroup
}

// NewUDPHintServer starts a UDP hint responder for the node.
func NewUDPHintServer(addr string, node *core.Node) (*UDPHintServer, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: udp listen %s: %w", addr, err)
	}
	s := &UDPHintServer{conn: conn}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, 64<<10)
		for {
			req, from, err := wire.ReadDatagram(conn, buf)
			if err != nil {
				if isClosed(err) {
					return
				}
				continue // drop malformed datagrams, as UDP services do
			}
			hint := node.HandleRead(req.Header.Key)
			_ = wire.WriteDatagram(conn, from, wire.Message{
				Header: wire.Header{Op: wire.OpOK, Key: hint.Key, Indices: hint.CacheChunks},
			})
		}
	}()
	return s, nil
}

// Addr returns the bound UDP address.
func (s *UDPHintServer) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the responder and waits for it to exit.
func (s *UDPHintServer) Close() {
	s.conn.Close()
	s.wg.Wait()
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// sortedIndices returns a batch's chunk indices in ascending order so batch
// handlers apply inserts deterministically.
func sortedIndices(chunks map[int][]byte) []int {
	out := make([]int, 0, len(chunks))
	for idx := range chunks {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

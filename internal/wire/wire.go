// Package wire implements the framing protocol Agar's live deployment
// speaks over TCP and UDP.
//
// Every message is one frame:
//
//	u32 frame length (big endian, excluding itself)
//	u16 header length
//	header: JSON-encoded Header
//	body: raw bytes (chunk payloads), may be empty
//
// The JSON header keeps the protocol debuggable and extensible; chunk
// payloads travel uncopied as the raw body. The same Header structure is
// reused for requests and responses. UDP hint datagrams carry a single
// frame per packet, mirroring the paper's low-overhead client-to-monitor
// channel.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"

	"github.com/agardist/agar/internal/trace"
)

// MaxFrame bounds a frame to guard against corrupt length prefixes.
const MaxFrame = 16 << 20

// MaxBatchChunks bounds how many chunk frames one batch message may carry.
// Erasure-coded reads move at most k+m chunks per object, so the bound is
// generous; it exists to reject corrupt or hostile batch headers before any
// allocation is sized from them.
const MaxBatchChunks = 256

// Op codes carried in Header.Op.
const (
	OpPut       = "put"        // store one chunk in a region's store
	OpMGet      = "mget"       // fetch many chunks of one key in one round trip
	OpMPut      = "mput"       // store many chunks of one key in one round trip
	OpDelObj    = "delobj"     // remove all chunks of an object
	OpHint      = "hint"       // request a caching hint (Agar monitor)
	OpDigest    = "digest"     // advertise a cache's residency to a peer
	OpDigestAck = "digest-ack" // acknowledge a digest frame (echoes Seq)
	OpOK        = "ok"         // success response
	OpError     = "error"      // failure response
	OpStale     = "stale"      // versioned mutation lost to a newer version
)

// Header is the JSON-encoded frame header.
type Header struct {
	// Op is the request operation or response status.
	Op string `json:"op"`
	// Key is the object key, when relevant.
	Key string `json:"key,omitempty"`
	// Index is the chunk index, when relevant.
	Index int `json:"index,omitempty"`
	// Indices carries chunk index lists (hints, mput acknowledgements,
	// batch chunk frames).
	Indices []int `json:"indices,omitempty"`
	// Region names the sending node's region on cooperative-cache frames:
	// the advertiser on OpDigest, the reading client on peer OpMGet calls
	// (so the serving cache can account peer traffic separately).
	Region string `json:"region,omitempty"`
	// Seq orders digest frames from one advertiser: a receiver replaces its
	// mirror on a higher Seq, merges frames sharing the current Seq (large
	// digests paginate), and drops lower ones as stale.
	Seq int64 `json:"seq,omitempty"`
	// Delta marks an OpDigest frame as a delta over snapshot Base: Groups
	// lists only the keys whose residency changed since the advertiser's
	// Base snapshot, an empty index list meaning the key is gone. A
	// receiver applies it only when its mirror sits exactly at Base; the
	// digest ack always echoes the mirror's resulting sequence, so an
	// advertiser that outran its peer sees the mismatch and falls back to a
	// full digest.
	Delta bool  `json:"delta,omitempty"`
	Base  int64 `json:"base,omitempty"`
	// Sizes carries the per-chunk byte lengths of a batch message's body:
	// Sizes[i] bytes of Body belong to chunk Indices[i], in order.
	Sizes []int `json:"sizes,omitempty"`
	// Trace, Span and TFlags carry the optional trace context of a traced
	// request: the 16-hex-digit trace ID the whole client operation runs
	// under, the client span that issued this exchange, and behaviour
	// flags (trace.FlagSampled asks the server for annotations). All three
	// are omitted for untraced requests, so untraced framing is
	// byte-identical to the pre-trace protocol and old peers interoperate.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	TFlags int    `json:"tflags,omitempty"`
	// Anns carries the server's span annotations back on the reply to a
	// traced request: named intervals (the handler's "exec") offset from
	// the server's receipt of the frame.
	Anns []trace.Annotation `json:"anns,omitempty"`
	// Ver carries one hybrid-logical-clock version (hlc.Timestamp as a
	// uint64): the write's stamp on versioned put/mput/delobj requests, the
	// key's version floor on read replies, and the winning version on
	// OpStale replies. Zero (omitted) means unversioned, so unversioned
	// frames stay byte-identical to the pre-version protocol — the same
	// contract the trace fields keep.
	Ver uint64 `json:"ver,omitempty"`
	// Vers carries per-chunk versions parallel to Indices on batch replies
	// whose chunks carry versions. When present it has exactly one entry
	// per index; absent means every chunk is unversioned.
	Vers []uint64 `json:"vers,omitempty"`
	// KeyVers carries per-key versions on OpDigest frames, alongside
	// Groups: the advertiser's newest known version for each advertised (or
	// delta-removed) key. Receivers raise their own version floors from it,
	// which is how a write's invalidation rides the digest mesh across
	// regions.
	KeyVers map[string]uint64 `json:"key_vers,omitempty"`
	// Error carries the error text for OpError responses.
	Error string `json:"error,omitempty"`
	// Groups carries an OpDigest frame's residency (key -> resident
	// indices).
	Groups map[string][]int `json:"groups,omitempty"`
}

// Message is one protocol frame.
//
// The body travels either as one contiguous slice (Body) or as an ordered
// vector of slices (Segments); their concatenation is the wire body. At
// most one of the two is set. Segments exist so a batched reply assembled
// from several buffers — per-shard fragments, per-chunk store results —
// can be written with one vectored syscall (WriteVectored) instead of
// being copied into one contiguous frame first.
//
// A message may own pooled buffers its Body or Segments alias (see Own);
// whoever consumes the message — normally WriteVectored on the server
// reply path — must Release it exactly once.
type Message struct {
	Header Header
	Body   []byte
	// Segments carries the body as a vector; nil means Body is the body.
	Segments [][]byte
	// owned lists the pooled buffers backing this message. Each remembers
	// its pool, so buffers from different pools can travel in one message.
	owned []ownedBuf
}

// ownedBuf pairs a pooled buffer with the pool that issued it.
type ownedBuf struct {
	pool *BufferPool
	buf  []byte
}

// Own records a pooled buffer this message's Body or Segments alias;
// Release returns it. Messages without owned buffers release as a no-op,
// so callers can release uniformly.
func (m *Message) Own(p *BufferPool, buf []byte) {
	m.owned = append(m.owned, ownedBuf{pool: p, buf: buf})
}

// Release returns every owned buffer to its pool and clears the body
// references (they alias buffers that may be reused immediately). Exactly
// one Release per message; messages owning nothing release as a no-op.
func (m *Message) Release() {
	if m.owned == nil {
		return
	}
	for _, o := range m.owned {
		o.pool.Put(o.buf)
	}
	m.owned = nil
	m.Body = nil
	m.Segments = nil
}

// BodyLen returns the wire body length: len(Body), or the summed segment
// lengths when the body travels as a vector.
func (m *Message) BodyLen() int {
	if m.Segments == nil {
		return len(m.Body)
	}
	n := 0
	for _, s := range m.Segments {
		n += len(s)
	}
	return n
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadFrame      = errors.New("wire: malformed frame")
	// ErrTruncated reports a stream that ended mid-frame: the peer closed
	// or the connection dropped after a partial length prefix or body.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadBatch reports a batch message whose chunk framing is
	// inconsistent: mismatched index/size counts, negative sizes, a body
	// that does not match the declared sizes, or too many chunks.
	ErrBadBatch = errors.New("wire: malformed batch")
)

// Encode serialises the message into a frame, flattening Segments into the
// contiguous body when the message carries a vectored one.
func Encode(m Message) ([]byte, error) {
	header, err := json.Marshal(m.Header)
	if err != nil {
		return nil, fmt.Errorf("wire: encode header: %w", err)
	}
	if len(header) > 0xFFFF {
		return nil, fmt.Errorf("wire: header too large (%d bytes)", len(header))
	}
	total := 2 + len(header) + m.BodyLen()
	if total > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf, uint32(total))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(header)))
	off := 6 + copy(buf[6:], header)
	if m.Segments != nil {
		for _, s := range m.Segments {
			off += copy(buf[off:], s)
		}
	} else {
		copy(buf[off:], m.Body)
	}
	return buf, nil
}

// Decode parses one frame payload (without the u32 length prefix). Frames
// whose declared header length exceeds the frame are rejected with
// ErrBadFrame rather than read out of bounds.
func Decode(frame []byte) (Message, error) {
	if len(frame) < 2 {
		return Message{}, fmt.Errorf("%w: %d-byte frame below minimum", ErrBadFrame, len(frame))
	}
	hlen := int(binary.BigEndian.Uint16(frame))
	if 2+hlen > len(frame) {
		return Message{}, fmt.Errorf("%w: header length %d exceeds %d-byte frame", ErrBadFrame, hlen, len(frame))
	}
	var h Header
	if err := json.Unmarshal(frame[2:2+hlen], &h); err != nil {
		return Message{}, fmt.Errorf("wire: decode header: %w", err)
	}
	body := frame[2+hlen:]
	out := Message{Header: h}
	if len(body) > 0 {
		out.Body = append([]byte(nil), body...)
	}
	return out, nil
}

// Write sends one message on a stream connection.
func Write(w io.Writer, m Message) error {
	buf, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read receives one message from a stream connection. A stream that ends
// cleanly between frames returns io.EOF; one that ends mid-frame returns
// ErrTruncated so callers can tell a graceful close from a torn one.
func Read(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Message{}, fmt.Errorf("%w: stream ended inside the length prefix", ErrTruncated)
		}
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return Message{}, ErrFrameTooLarge
	}
	frame := make([]byte, n)
	read, err := io.ReadFull(r, frame)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Message{}, fmt.Errorf("%w: stream ended %d bytes into a %d-byte frame", ErrTruncated, read, n)
		}
		return Message{}, fmt.Errorf("wire: short frame: %w", err)
	}
	return Decode(frame)
}

// DecodeShared parses one frame payload like Decode, but the returned
// message's Body aliases the frame buffer instead of copying it. The
// caller guarantees the frame outlives every use of the body — the pooled
// read path does so by making the message own the frame (see ReadPooled).
func DecodeShared(frame []byte) (Message, error) {
	if len(frame) < 2 {
		return Message{}, fmt.Errorf("%w: %d-byte frame below minimum", ErrBadFrame, len(frame))
	}
	hlen := int(binary.BigEndian.Uint16(frame))
	if 2+hlen > len(frame) {
		return Message{}, fmt.Errorf("%w: header length %d exceeds %d-byte frame", ErrBadFrame, hlen, len(frame))
	}
	var h Header
	if err := json.Unmarshal(frame[2:2+hlen], &h); err != nil {
		return Message{}, fmt.Errorf("wire: decode header: %w", err)
	}
	out := Message{Header: h}
	if body := frame[2+hlen:]; len(body) > 0 {
		out.Body = body
	}
	return out, nil
}

// ReadPooled receives one message using a pooled frame buffer instead of a
// fresh allocation per frame. The returned message's Body aliases the
// pooled frame and the message owns it: the caller must Release the
// message once the request has been handled (handlers copy anything they
// retain). Every error path — oversize reject, truncation, a bad header
// length — returns the pooled buffer before reporting, so a hostile or
// torn stream cannot leak frames out of the pool.
func ReadPooled(r io.Reader, p *BufferPool) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Message{}, fmt.Errorf("%w: stream ended inside the length prefix", ErrTruncated)
		}
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return Message{}, ErrFrameTooLarge
	}
	frame := p.Get(int(n))
	read, err := io.ReadFull(r, frame)
	if err != nil {
		p.Put(frame)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Message{}, fmt.Errorf("%w: stream ended %d bytes into a %d-byte frame", ErrTruncated, read, n)
		}
		return Message{}, fmt.Errorf("wire: short frame: %w", err)
	}
	m, err := DecodeShared(frame)
	if err != nil {
		p.Put(frame)
		return Message{}, err
	}
	m.Own(p, frame)
	return m, nil
}

// WriteVectored sends one message without flattening it into a contiguous
// frame: the length prefix and JSON header go into one pooled buffer, and
// the body — contiguous or vectored — is written alongside it with
// net.Buffers, which is a single writev on a TCP connection. A batched
// reply assembled as Segments therefore reaches the socket with zero body
// copies.
//
// WriteVectored consumes the message: it Releases any owned pooled
// buffers on every path, success or error, so server reply paths can hand
// pooled responses to it unconditionally.
func WriteVectored(w io.Writer, m Message, p *BufferPool) error {
	header, err := json.Marshal(m.Header)
	if err != nil {
		m.Release()
		return fmt.Errorf("wire: encode header: %w", err)
	}
	if len(header) > 0xFFFF {
		m.Release()
		return fmt.Errorf("wire: header too large (%d bytes)", len(header))
	}
	bl := m.BodyLen()
	total := 2 + len(header) + bl
	if total > MaxFrame {
		m.Release()
		return ErrFrameTooLarge
	}
	head := p.Get(6 + len(header))
	binary.BigEndian.PutUint32(head, uint32(total))
	binary.BigEndian.PutUint16(head[4:], uint16(len(header)))
	copy(head[6:], header)
	if bl == 0 {
		_, err = w.Write(head)
	} else {
		vec := make(net.Buffers, 1, 1+max(1, len(m.Segments)))
		vec[0] = head
		if m.Segments != nil {
			vec = append(vec, m.Segments...)
		} else {
			vec = append(vec, m.Body)
		}
		_, err = vec.WriteTo(w)
	}
	p.Put(head)
	m.Release()
	return err
}

// Call performs one request/response round trip on a stream connection.
func Call(conn net.Conn, req Message) (Message, error) {
	if err := Write(conn, req); err != nil {
		return Message{}, err
	}
	resp, err := Read(conn)
	if err != nil {
		return Message{}, err
	}
	if resp.Header.Op == OpError {
		return resp, fmt.Errorf("wire: remote error: %s", resp.Header.Error)
	}
	return resp, nil
}

// WriteDatagram sends one message as a single UDP datagram.
func WriteDatagram(conn net.PacketConn, addr net.Addr, m Message) error {
	buf, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = conn.WriteTo(buf[4:], addr) // datagrams carry no length prefix
	return err
}

// ReadDatagram receives one message from a UDP socket. The buffer must be
// large enough for the expected datagram (hints are small).
func ReadDatagram(conn net.PacketConn, buf []byte) (Message, net.Addr, error) {
	n, addr, err := conn.ReadFrom(buf)
	if err != nil {
		return Message{}, nil, err
	}
	m, err := Decode(buf[:n])
	return m, addr, err
}

// ErrorMessage builds an OpError response.
func ErrorMessage(err error) Message {
	return Message{Header: Header{Op: OpError, Error: err.Error()}}
}

// PackBatch lays a set of chunks out as one batch message payload: sorted
// indices, matching per-chunk sizes, and the concatenated bodies. It
// rejects batches over MaxBatchChunks and empty chunk maps.
func PackBatch(chunks map[int][]byte) (indices []int, sizes []int, body []byte, err error) {
	if len(chunks) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: empty batch", ErrBadBatch)
	}
	if len(chunks) > MaxBatchChunks {
		return nil, nil, nil, fmt.Errorf("%w: %d chunks exceeds limit %d", ErrBadBatch, len(chunks), MaxBatchChunks)
	}
	indices = make([]int, 0, len(chunks))
	total := 0
	for idx, data := range chunks {
		indices = append(indices, idx)
		total += len(data)
	}
	sort.Ints(indices)
	sizes = make([]int, len(indices))
	body = make([]byte, 0, total)
	for i, idx := range indices {
		sizes[i] = len(chunks[idx])
		body = append(body, chunks[idx]...)
	}
	return indices, sizes, body, nil
}

// PackBatchViews lays a chunk set out as batch framing without copying the
// chunk bytes: sorted indices, per-chunk sizes, and the chunk slices
// themselves as body segments in index order. The segments alias the map's
// values, so the message built from them must be written before any of
// those buffers are reused — which the server reply path does immediately
// via WriteVectored. Limits match PackBatch.
func PackBatchViews(chunks map[int][]byte) (indices []int, sizes []int, segments [][]byte, err error) {
	if len(chunks) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: empty batch", ErrBadBatch)
	}
	if len(chunks) > MaxBatchChunks {
		return nil, nil, nil, fmt.Errorf("%w: %d chunks exceeds limit %d", ErrBadBatch, len(chunks), MaxBatchChunks)
	}
	indices = make([]int, 0, len(chunks))
	for idx := range chunks {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	sizes = make([]int, len(indices))
	segments = make([][]byte, len(indices))
	for i, idx := range indices {
		sizes[i] = len(chunks[idx])
		segments[i] = chunks[idx]
	}
	return indices, sizes, segments, nil
}

// UnpackBatchViews is UnpackBatch without the copies: every returned chunk
// aliases the body slice. Use it when the chunks are consumed before the
// frame buffer is reused — the cache server's mput handler (the cache
// copies on insert) and client adapters that hand the map straight to a
// decoder. Callers that retain chunks past the frame must use UnpackBatch.
func UnpackBatchViews(indices, sizes []int, body []byte) (map[int][]byte, error) {
	if len(indices) != len(sizes) {
		return nil, fmt.Errorf("%w: %d indices vs %d sizes", ErrBadBatch, len(indices), len(sizes))
	}
	if len(indices) > MaxBatchChunks {
		return nil, fmt.Errorf("%w: %d chunks exceeds limit %d", ErrBadBatch, len(indices), MaxBatchChunks)
	}
	out := make(map[int][]byte, len(indices))
	off := 0
	for i, idx := range indices {
		size := sizes[i]
		if size < 0 {
			return nil, fmt.Errorf("%w: negative size %d for chunk %d", ErrBadBatch, size, idx)
		}
		if size > len(body)-off {
			return nil, fmt.Errorf("%w: body truncated at chunk %d (%d of %d bytes)", ErrBadBatch, idx, len(body), off+size)
		}
		if _, dup := out[idx]; dup {
			return nil, fmt.Errorf("%w: duplicate chunk index %d", ErrBadBatch, idx)
		}
		out[idx] = body[off : off+size]
		off += size
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrBadBatch, len(body)-off)
	}
	return out, nil
}

// UnpackBatch is PackBatch's inverse: it validates the chunk framing of a
// batch message and splits the body back into per-index chunks. Every
// returned chunk is a copy, so the caller may retain them after the frame
// buffer is reused. Inconsistent framing — mismatched counts, negative
// sizes, a body longer or shorter than the sizes declare, duplicate
// indices, or over-limit batches — returns ErrBadBatch.
func UnpackBatch(indices, sizes []int, body []byte) (map[int][]byte, error) {
	if len(indices) != len(sizes) {
		return nil, fmt.Errorf("%w: %d indices vs %d sizes", ErrBadBatch, len(indices), len(sizes))
	}
	if len(indices) > MaxBatchChunks {
		return nil, fmt.Errorf("%w: %d chunks exceeds limit %d", ErrBadBatch, len(indices), MaxBatchChunks)
	}
	out := make(map[int][]byte, len(indices))
	off := 0
	for i, idx := range indices {
		size := sizes[i]
		if size < 0 {
			return nil, fmt.Errorf("%w: negative size %d for chunk %d", ErrBadBatch, size, idx)
		}
		// size > len(body)-off, not off+size > len(body): the sum overflows
		// for hostile sizes near MaxInt.
		if size > len(body)-off {
			return nil, fmt.Errorf("%w: body truncated at chunk %d (%d of %d bytes)", ErrBadBatch, idx, len(body), off+size)
		}
		if _, dup := out[idx]; dup {
			return nil, fmt.Errorf("%w: duplicate chunk index %d", ErrBadBatch, idx)
		}
		out[idx] = append([]byte(nil), body[off:off+size]...)
		off += size
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrBadBatch, len(body)-off)
	}
	return out, nil
}

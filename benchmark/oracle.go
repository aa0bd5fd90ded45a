package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Payloads are self-describing so a read can be judged from its bytes alone:
//
//	magic u32 | key id u32 | sequence u64 | total length u32 | CRC-32C(body) u32 | body
//
// The body is one seeded block shared by every object of a run, stamped
// with (key id, sequence) every stampStride bytes, so every erasure chunk
// of every version of every key differs and a payload decoded from chunks
// of two versions (or two keys) fails the CRC.
const (
	payloadMagic  = 0xA6A2B001
	payloadHeader = 24
	stampStride   = 512
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type payloadMaker struct{ base []byte }

// newPayloadMaker seeds the body block for objects of size bytes.
func newPayloadMaker(seed uint64, size int) *payloadMaker {
	if size < payloadHeader+stampStride {
		panic("benchmark: object smaller than one payload stride")
	}
	r := newRNG(seed ^ 0x7061796c6f6164) // "payload"
	base := make([]byte, size-payloadHeader)
	for i := 0; i+8 <= len(base); i += 8 {
		binary.LittleEndian.PutUint64(base[i:], r.next())
	}
	return &payloadMaker{base: base}
}

func (m *payloadMaker) size() int { return len(m.base) + payloadHeader }

// fill writes the payload of (key, seq) into dst, which must be size()
// bytes long, and returns it.
func (m *payloadMaker) fill(dst []byte, key int, seq uint64) []byte {
	body := dst[payloadHeader:]
	copy(body, m.base)
	for i := 0; i+12 <= len(body); i += stampStride {
		binary.LittleEndian.PutUint32(body[i:], uint32(key))
		binary.LittleEndian.PutUint64(body[i+4:], seq)
	}
	binary.LittleEndian.PutUint32(dst[0:], payloadMagic)
	binary.LittleEndian.PutUint32(dst[4:], uint32(key))
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint32(dst[16:], uint32(len(dst)))
	binary.LittleEndian.PutUint32(dst[20:], crc32.Checksum(body, castagnoli))
	return dst
}

// checkPayload judges one read: the payload must be whole (length), belong
// to the key, carry an intact body (CRC-32C), and be no older than minSeq —
// the newest write of the key acknowledged before the read began.
func checkPayload(p []byte, key int, size int, minSeq uint64) error {
	if len(p) != size {
		return fmt.Errorf("short payload: %d bytes, want %d", len(p), size)
	}
	if binary.LittleEndian.Uint32(p[0:]) != payloadMagic {
		return fmt.Errorf("bad magic %#x", binary.LittleEndian.Uint32(p[0:]))
	}
	if got := binary.LittleEndian.Uint32(p[4:]); got != uint32(key) {
		return fmt.Errorf("payload of key %d returned for key %d", got, key)
	}
	if got := binary.LittleEndian.Uint32(p[16:]); got != uint32(size) {
		return fmt.Errorf("length field %d, want %d", got, size)
	}
	if got, want := crc32.Checksum(p[payloadHeader:], castagnoli), binary.LittleEndian.Uint32(p[20:]); got != want {
		return fmt.Errorf("torn payload: body CRC %#x, header says %#x", got, want)
	}
	if seq := binary.LittleEndian.Uint64(p[8:]); seq < minSeq {
		return fmt.Errorf("stale payload: sequence %d, but %d was acknowledged before the read began", seq, minSeq)
	}
	return nil
}

// ackTable is the shared per-key record of the newest acknowledged write.
type ackTable []atomic.Uint64

func (t ackTable) acked(key int) uint64 { return t[key].Load() }

// ack records a write's acknowledgement. A key has one writer lane, which
// acknowledges in sequence order, so a plain store is enough.
func (t ackTable) ack(key int, seq uint64) { t[key].Store(seq) }

// Package erasure implements a systematic Reed-Solomon erasure codec over
// GF(2^8), the coding substrate Agar caches operate on.
//
// An object is split into k equally sized data chunks; m parity chunks are
// computed from them. Any k of the resulting k+m chunks suffice to
// reconstruct the original object. The codec is systematic: the first k
// chunks are the data itself, so reads that find all data chunks need no
// decoding at all.
//
// Two coding-matrix constructions are provided: a systematised Vandermonde
// matrix (default, matching most Reed-Solomon deployments) and a Cauchy
// matrix (as used by Longhair, the library the paper's prototype uses).
package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/agardist/agar/internal/matrix"
)

// Construction selects how the coding matrix is built.
type Construction int

const (
	// Vandermonde builds the coding matrix from a systematised Vandermonde
	// matrix. This is the default.
	Vandermonde Construction = iota + 1
	// Cauchy builds the coding matrix from an identity block stacked on a
	// Cauchy block, mirroring Longhair's Cauchy Reed-Solomon codes.
	Cauchy
)

// String returns the construction name.
func (c Construction) String() string {
	switch c {
	case Vandermonde:
		return "vandermonde"
	case Cauchy:
		return "cauchy"
	default:
		return fmt.Sprintf("construction(%d)", int(c))
	}
}

// Errors returned by the codec.
var (
	ErrInvalidParams    = errors.New("erasure: k and m must be positive and k+m <= 256")
	ErrTooFewChunks     = errors.New("erasure: fewer than k chunks available")
	ErrChunkSizeMism    = errors.New("erasure: chunks have inconsistent sizes")
	ErrShortData        = errors.New("erasure: data too short to carry size header")
	ErrChunkCount       = errors.New("erasure: wrong number of chunk slots")
	ErrSizeHeaderBroken = errors.New("erasure: size header larger than reconstructed payload")
)

// Codec encodes and decodes objects with Reed-Solomon parameters (k, m).
// A Codec is immutable and safe for concurrent use.
type Codec struct {
	k int
	m int

	coding *matrix.Matrix // (k+m) x k; top k rows are the identity

	mu       sync.RWMutex
	invCache map[rowSet]*matrix.Matrix // decode-matrix cache keyed by the k rows decoded from
}

// rowSet is a bitmask over chunk ids (k+m <= 256).
type rowSet [4]uint64

func (s *rowSet) add(i int)     { s[i/64] |= 1 << (i % 64) }
func (s rowSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// New returns a codec with k data chunks and m parity chunks using the
// Vandermonde construction.
func New(k, m int) (*Codec, error) {
	return NewWith(k, m, Vandermonde)
}

// NewWith returns a codec using the given matrix construction.
func NewWith(k, m int, c Construction) (*Codec, error) {
	if k <= 0 || m < 0 || k+m > 256 {
		return nil, ErrInvalidParams
	}
	codec := &Codec{k: k, m: m, invCache: make(map[rowSet]*matrix.Matrix)}
	switch c {
	case Vandermonde:
		codec.coding = systematicVandermonde(k, m)
	case Cauchy:
		codec.coding = systematicCauchy(k, m)
	default:
		return nil, fmt.Errorf("erasure: unknown construction %v", c)
	}
	return codec, nil
}

// systematicVandermonde builds a (k+m) x k coding matrix whose top k rows are
// the identity, derived by multiplying a plain Vandermonde matrix by the
// inverse of its top square block. The result stays MDS because row
// operations preserve the independence of every k-row subset.
func systematicVandermonde(k, m int) *matrix.Matrix {
	v := matrix.Vandermonde(k+m, k)
	top := v.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// The top block of a Vandermonde matrix with distinct evaluation
		// points is always invertible; reaching this is a programming error.
		panic(fmt.Sprintf("erasure: vandermonde top block singular: %v", err))
	}
	return v.Mul(topInv)
}

// systematicCauchy stacks the k x k identity on an m x k Cauchy block.
func systematicCauchy(k, m int) *matrix.Matrix {
	out := matrix.New(k+m, k)
	for i := 0; i < k; i++ {
		out.Set(i, i, 1)
	}
	c := matrix.Cauchy(m, k)
	for r := 0; r < m; r++ {
		for col := 0; col < k; col++ {
			out.Set(k+r, col, c.Get(r, col))
		}
	}
	return out
}

// K returns the number of data chunks.
func (c *Codec) K() int { return c.k }

// M returns the number of parity chunks.
func (c *Codec) M() int { return c.m }

// Total returns k + m.
func (c *Codec) Total() int { return c.k + c.m }

// ChunkSize returns the per-chunk size for an object of dataLen bytes,
// accounting for the 8-byte length header and padding to a multiple of k.
func (c *Codec) ChunkSize(dataLen int) int {
	padded := dataLen + headerSize
	per := (padded + c.k - 1) / c.k
	return per
}

const headerSize = 8 // uint64 little-endian original length

// Split encodes data into k+m chunks. The original length is recorded in an
// 8-byte header so Decode can strip padding. The input slice is not retained.
func (c *Codec) Split(data []byte) ([][]byte, error) {
	chunkSize := c.ChunkSize(len(data))
	// Lay out header + data + zero padding across the k data chunks.
	buf := make([]byte, c.k*chunkSize)
	binary.LittleEndian.PutUint64(buf, uint64(len(data)))
	copy(buf[headerSize:], data)

	chunks := make([][]byte, c.Total())
	for i := 0; i < c.k; i++ {
		chunks[i] = buf[i*chunkSize : (i+1)*chunkSize : (i+1)*chunkSize]
	}
	parity := make([]byte, c.m*chunkSize)
	for i := 0; i < c.m; i++ {
		chunks[c.k+i] = parity[i*chunkSize : (i+1)*chunkSize : (i+1)*chunkSize]
	}
	code(c.coding, c.k, chunks[:c.k], chunks[c.k:])
	return chunks, nil
}

// decodePlan validates a k+m slot set and returns the chunk size. When a
// data chunk is missing it also returns the first k present chunks and the
// matrix that maps them back to the k data chunks; when none is, both are
// nil.
func (c *Codec) decodePlan(chunks [][]byte) (size int, in [][]byte, dec *matrix.Matrix, err error) {
	if len(chunks) != c.Total() {
		return 0, nil, nil, ErrChunkCount
	}
	size = -1
	present, allData := 0, true
	var used rowSet // the first k present rows
	for i, ch := range chunks {
		if ch == nil {
			allData = allData && i >= c.k
			continue
		}
		if size == -1 {
			size = len(ch)
		} else if len(ch) != size {
			return 0, nil, nil, ErrChunkSizeMism
		}
		if present < c.k {
			used.add(i)
		}
		present++
	}
	if present < c.k {
		return 0, nil, nil, ErrTooFewChunks
	}
	if allData {
		return size, nil, nil, nil
	}
	dec, err = c.decodeMatrix(used)
	if err != nil {
		return 0, nil, nil, err
	}
	in = make([][]byte, 0, c.k)
	for i, ch := range chunks {
		if used.has(i) {
			in = append(in, ch)
		}
	}
	return size, in, dec, nil
}

// decodeMatrix returns the inverse of the coding-matrix rows in used, cached
// per row set.
func (c *Codec) decodeMatrix(used rowSet) (*matrix.Matrix, error) {
	c.mu.RLock()
	dec, ok := c.invCache[used]
	c.mu.RUnlock()
	if ok {
		return dec, nil
	}

	rows := make([]int, 0, c.k)
	for i := 0; i < c.Total(); i++ {
		if used.has(i) {
			rows = append(rows, i)
		}
	}
	dec, err := c.coding.SelectRows(rows).Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode matrix for rows %v: %w", rows, err)
	}

	c.mu.Lock()
	c.invCache[used] = dec
	c.mu.Unlock()
	return dec, nil
}

// stripHeader validates the length header of the concatenated data chunks
// and returns the payload it frames.
func stripHeader(buf []byte) ([]byte, error) {
	n := binary.LittleEndian.Uint64(buf)
	if n > uint64(len(buf)-headerSize) {
		return nil, ErrSizeHeaderBroken
	}
	return buf[headerSize : headerSize+n : headerSize+n], nil
}

// Decode is the common read path: reconstruct missing data chunks from any k
// available chunks, then join into the original object. The k data chunks
// are assembled in one buffer — present ones copied into place, missing ones
// computed straight into it — so the input is neither mutated nor retained.
func (c *Codec) Decode(chunks [][]byte) ([]byte, error) {
	size, in, dec, err := c.decodePlan(chunks)
	if err != nil {
		return nil, err
	}
	if size*c.k < headerSize {
		return nil, ErrShortData
	}
	buf := make([]byte, c.k*size)
	missing := make([][]byte, c.k)
	for i := range missing {
		dst := buf[i*size : (i+1)*size]
		if chunks[i] != nil {
			copy(dst, chunks[i])
		} else {
			missing[i] = dst
		}
	}
	if dec != nil {
		code(dec, 0, in, missing)
	}
	return stripHeader(buf)
}

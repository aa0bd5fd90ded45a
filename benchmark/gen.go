package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// rng is a splitmix64 stream: tiny, seedable, and the benchmark's own, so
// the op stream never changes because a library's generator did.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^s, by
// binary search over the precomputed distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// op is one generated operation. Everything in it is a function of the
// workload and the seed alone: the due offset is i/rate, and a write's
// payload sequence is the count of earlier writes to its key plus one.
type op struct {
	ID   int
	Kind opKind
	Key  int           // key id, 0..Objects-1
	Due  time.Duration // offset from the phase's t0
	Seq  uint64        // payload sequence (writes only)
}

// opStream generates a workload's operations in due order.
type opStream struct {
	w        workload
	r        *rng
	z        *zipf
	perm     []int // popularity rank → key id, seeded
	writes   []uint64
	n        int
	rotateAt int // op index from which ranks shift by w.RotateBy (0: never)
}

func keyPerm(n int, seed uint64) []int {
	r := newRNG(seed ^ 0x6b65797065726d) // "keyperm"
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func newOpStream(w workload, seed uint64) *opStream {
	return &opStream{
		w:      w,
		r:      newRNG(seed),
		z:      newZipf(w.Objects, w.Zipf),
		perm:   keyPerm(w.Objects, seed),
		writes: make([]uint64, w.Objects),
	}
}

// next returns the stream's next n operations with due offsets restarting
// at zero; sequence numbers and the rotation point carry across calls.
func (s *opStream) next(n int) []op { return s.draw(n, false) }

// nextWrites is next with every operation turned into a write — the write
// bursts of a workload whose own stream has none.
func (s *opStream) nextWrites(n int) []op { return s.draw(n, true) }

func (s *opStream) draw(n int, allWrites bool) []op {
	ops := make([]op, n)
	for i := range ops {
		kind := opRead
		// Draw the kind even on read-only workloads so the key sequence of a
		// workload does not depend on its write share.
		if s.r.float() < s.w.WriteFrac || allWrites {
			kind = opWrite
		}
		rank := s.z.draw(s.r)
		if s.rotateAt > 0 && s.n >= s.rotateAt {
			rank = (rank + s.w.RotateBy) % s.w.Objects
		}
		o := op{ID: s.n, Kind: kind, Key: s.perm[rank], Due: time.Duration(float64(i) / s.w.Rate * float64(time.Second))}
		if kind == opWrite {
			s.writes[o.Key]++
			o.Seq = s.writes[o.Key]
		}
		ops[i] = o
		s.n++
	}
	return ops
}

func keyName(id int) string { return fmt.Sprintf("obj-%04d", id) }

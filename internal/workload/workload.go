// Package workload generates the request streams used by the evaluation: the
// YCSB-style Zipfian distribution the paper drives every experiment with,
// plus uniform, scrambled-Zipfian, latest and range-hotspot generators.
//
// Zipfian samples exactly from the inverse CDF, valid for any skew exponent
// (the paper uses skews from 0.2 up to 1.4, beyond the range where the
// classic YCSB streaming approximation is accurate).
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Generator yields a stream of key indices in [0, N).
type Generator interface {
	// Next returns the next key index.
	Next() int
	// N returns the size of the key space.
	N() int
}

// KeyName formats a key index the way the harness names objects.
func KeyName(i int) string { return fmt.Sprintf("object-%05d", i) }

// --- exact Zipfian ---

// Zipfian samples from a Zipf distribution with P(i) proportional to
// 1/(i+1)^s over indices 0..n-1, by exact inverse-CDF lookup. Key 0 is the
// most popular. The zero value is unusable; construct with NewZipfian.
type Zipfian struct {
	n   int
	s   float64
	cdf []float64
	rng *rand.Rand
}

// NewZipfian returns an exact Zipfian generator over n keys with skew s and
// a deterministic seed. Skew 0 degenerates to the uniform distribution.
func NewZipfian(n int, s float64, seed int64) *Zipfian {
	if n <= 0 {
		panic("workload: zipfian needs n > 0")
	}
	if s < 0 {
		panic("workload: zipfian skew must be non-negative")
	}
	z := &Zipfian{n: n, s: s, cdf: make([]float64, n), rng: rand.New(rand.NewSource(seed))}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Next implements Generator.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N implements Generator.
func (z *Zipfian) N() int { return z.n }

// Weights returns the normalised probability of each key, most popular
// first.
func (z *Zipfian) Weights() []float64 {
	out := make([]float64, z.n)
	prev := 0.0
	for i, c := range z.cdf {
		out[i] = c - prev
		prev = c
	}
	return out
}

// PopularityCDF returns the cumulative share of requests captured by the x
// most popular objects, for x = 1..top, under a Zipf distribution with the
// given skew over n objects. This is exactly the curve family plotted in the
// paper's Figure 9.
func PopularityCDF(n int, skew float64, top int) []float64 {
	if top > n {
		top = n
	}
	z := NewZipfian(n, skew, 0)
	out := make([]float64, top)
	copy(out, z.cdf[:top])
	return out
}

// --- scrambled Zipfian ---

// ScrambledZipfian draws ranks from a Zipfian distribution and scatters them
// over the key space with an FNV hash, so popularity is Zipf-distributed but
// popular keys are spread out rather than clustered at low indices. This
// mirrors YCSB's ScrambledZipfianGenerator.
type ScrambledZipfian struct {
	inner *Zipfian
}

// NewScrambledZipfian returns a scrambled Zipfian generator.
func NewScrambledZipfian(n int, s float64, seed int64) *ScrambledZipfian {
	return &ScrambledZipfian{inner: NewZipfian(n, s, seed)}
}

// Next implements Generator.
func (g *ScrambledZipfian) Next() int {
	rank := g.inner.Next()
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(rank >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum64() % uint64(g.inner.n))
}

// N implements Generator.
func (g *ScrambledZipfian) N() int { return g.inner.n }

// --- uniform ---

// Uniform samples keys uniformly at random.
type Uniform struct {
	n   int
	rng *rand.Rand
}

// NewUniform returns a uniform generator over n keys.
func NewUniform(n int, seed int64) *Uniform {
	if n <= 0 {
		panic("workload: uniform needs n > 0")
	}
	return &Uniform{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Generator.
func (u *Uniform) Next() int { return u.rng.Intn(u.n) }

// N implements Generator.
func (u *Uniform) N() int { return u.n }

// --- sequential ---

// Sequential cycles through the key space in order; useful for load phases.
type Sequential struct {
	n, next int
}

// NewSequential returns a sequential generator over n keys.
func NewSequential(n int) *Sequential {
	if n <= 0 {
		panic("workload: sequential needs n > 0")
	}
	return &Sequential{n: n}
}

// Next implements Generator.
func (s *Sequential) Next() int {
	v := s.next
	s.next = (s.next + 1) % s.n
	return v
}

// N implements Generator.
func (s *Sequential) N() int { return s.n }

// --- latest ---

// Latest skews towards recently inserted keys: it draws a Zipfian rank and
// counts backwards from the most recent key, as YCSB's "latest"
// distribution does.
type Latest struct {
	inner *Zipfian
}

// NewLatest returns a latest-skewed generator over n keys.
func NewLatest(n int, s float64, seed int64) *Latest {
	return &Latest{inner: NewZipfian(n, s, seed)}
}

// Next implements Generator.
func (l *Latest) Next() int {
	rank := l.inner.Next()
	return l.inner.n - 1 - rank
}

// N implements Generator.
func (l *Latest) N() int { return l.inner.n }

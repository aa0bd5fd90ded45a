// Package geo models the geographic substrate of an erasure-coded storage
// deployment: the set of regions, the chunk-read latency between every pair
// of regions, and the policy that places chunks onto regions.
//
// The default deployment mirrors the paper's Figure 1: six AWS regions, each
// hosting one backend bucket and one cache, with the twelve chunks of every
// RS(9,3)-coded object distributed round-robin (two chunks per region).
package geo

import (
	"fmt"
	"hash/fnv"
	"time"
)

// RegionID identifies a region in a deployment. Region ids are dense
// indices into the deployment's region list.
type RegionID int

// The six regions of the paper's AWS deployment (Figure 1).
const (
	Frankfurt RegionID = iota
	Dublin
	NVirginia
	SaoPaulo
	Tokyo
	Sydney
)

var regionNames = [...]string{
	Frankfurt: "frankfurt",
	Dublin:    "dublin",
	NVirginia: "n-virginia",
	SaoPaulo:  "sao-paulo",
	Tokyo:     "tokyo",
	Sydney:    "sydney",
}

// String returns the canonical lower-case region name.
func (r RegionID) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("region-%d", int(r))
}

// ParseRegion resolves a region name to its id within the default
// deployment. It returns an error for unknown names.
func ParseRegion(name string) (RegionID, error) {
	for i, n := range regionNames {
		if n == name {
			return RegionID(i), nil
		}
	}
	return 0, fmt.Errorf("geo: unknown region %q", name)
}

// DefaultRegions returns the paper's six regions in canonical order.
func DefaultRegions() []RegionID {
	return []RegionID{Frankfurt, Dublin, NVirginia, SaoPaulo, Tokyo, Sydney}
}

// LatencyMatrix holds the expected latency for a client in region `from` to
// read one erasure-coded chunk stored in region `to`, including storage
// service time and transfer. It is not required to be symmetric.
type LatencyMatrix struct {
	n int
	d []time.Duration // row-major: d[from*n+to]
}

// NewLatencyMatrix returns a zeroed n x n matrix.
func NewLatencyMatrix(n int) *LatencyMatrix {
	if n <= 0 {
		panic("geo: latency matrix size must be positive")
	}
	return &LatencyMatrix{n: n, d: make([]time.Duration, n*n)}
}

// LatencyMatrixFromRows builds a matrix from per-region rows expressed in
// milliseconds. It panics on ragged input.
func LatencyMatrixFromRows(rowsMS [][]float64) *LatencyMatrix {
	m := NewLatencyMatrix(len(rowsMS))
	for from, row := range rowsMS {
		if len(row) != m.n {
			panic("geo: ragged latency rows")
		}
		for to, ms := range row {
			m.Set(RegionID(from), RegionID(to), time.Duration(ms*float64(time.Millisecond)))
		}
	}
	return m
}

// Size returns the number of regions covered by the matrix.
func (m *LatencyMatrix) Size() int { return m.n }

// Get returns the chunk-read latency from a client in `from` to a chunk in
// `to`.
func (m *LatencyMatrix) Get(from, to RegionID) time.Duration {
	m.check(from)
	m.check(to)
	return m.d[int(from)*m.n+int(to)]
}

// Set stores the chunk-read latency for the (from, to) pair.
func (m *LatencyMatrix) Set(from, to RegionID, d time.Duration) {
	m.check(from)
	m.check(to)
	m.d[int(from)*m.n+int(to)] = d
}

func (m *LatencyMatrix) check(r RegionID) {
	if int(r) < 0 || int(r) >= m.n {
		panic(fmt.Sprintf("geo: region %d out of range for %d-region matrix", int(r), m.n))
	}
}

// Row returns a copy of the latency row observed by clients in `from`.
func (m *LatencyMatrix) Row(from RegionID) []time.Duration {
	m.check(from)
	out := make([]time.Duration, m.n)
	copy(out, m.d[int(from)*m.n:int(from+1)*m.n])
	return out
}

// TableI returns the per-region chunk read latencies from the point of view
// of Frankfurt exactly as reported in the paper's Table I. These values are
// used by the paper's worked example in §IV-A.
func TableI() map[RegionID]time.Duration {
	return map[RegionID]time.Duration{
		Frankfurt: 80 * time.Millisecond,
		Dublin:    200 * time.Millisecond,
		NVirginia: 600 * time.Millisecond,
		SaoPaulo:  1400 * time.Millisecond,
		Tokyo:     3400 * time.Millisecond,
		Sydney:    4600 * time.Millisecond,
	}
}

// TableIMatrix returns a six-region matrix whose Frankfurt row is Table I
// verbatim. The remaining rows are filled symmetrically from the Frankfurt
// row where the paper gives no data; this matrix exists to reproduce the
// §IV-A worked example and the algorithm unit tests, not the measured
// figures.
func TableIMatrix() *LatencyMatrix {
	m := DefaultMatrix()
	for r, d := range TableI() {
		m.Set(Frankfurt, r, d)
		m.Set(r, Frankfurt, d)
	}
	m.Set(Frankfurt, Frankfurt, 80*time.Millisecond)
	return m
}

// DefaultMatrix returns the calibrated six-region chunk-read latency matrix
// used by the experiment harness.
//
// Calibration: the paper's Table I is part of an illustrative example and is
// inconsistent with the measured averages in Figures 2 and 6 (e.g. Table I
// implies a 3,400 ms backend read from Frankfurt while Figure 2 reports
// roughly 1,000 ms). This matrix is therefore calibrated against the
// figures' reported numbers instead: a Frankfurt backend read lands near
// 1,000 ms, caching up to 3 chunks barely helps Frankfurt while it helps
// Sydney substantially (Figure 2), and the best static policy in Frankfurt
// lands near 490 ms (Figure 6). Relative region ordering follows AWS
// geography.
func DefaultMatrix() *LatencyMatrix {
	rows := [][]float64{
		//            FRA   DUB   NVA   SAO   TYO   SYD
		Frankfurt: {80, 120, 850, 920, 980, 1150},
		Dublin:    {120, 80, 800, 950, 1050, 1150},
		NVirginia: {850, 800, 80, 600, 900, 950},
		SaoPaulo:  {920, 950, 600, 80, 1100, 1050},
		Tokyo:     {980, 1050, 900, 1100, 80, 150},
		Sydney:    {1000, 1100, 550, 850, 150, 80},
	}
	return LatencyMatrixFromRows(rows)
}

// keyIndex hashes an object key to a stable small integer used by rotating
// placement.
func keyIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() & 0x7FFFFFFF)
}

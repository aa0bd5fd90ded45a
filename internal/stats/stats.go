// Package stats provides the statistical primitives shared by Agar's request
// monitor and the benchmark harness: exponentially weighted moving averages
// and latency summaries with percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// EWMA tracks an exponentially weighted moving average with weighting
// coefficient alpha, exactly as the paper's popularity estimate (§IV):
//
//	value_i = alpha*sample_i + (1-alpha)*value_{i-1}
//
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	samples int
}

// NewEWMA returns an EWMA with the given coefficient. Alpha must lie in
// (0, 1]; the paper uses 0.8.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds one period's sample into the average and returns the new
// value. The first sample still passes through the EWMA recurrence with an
// implicit prior of zero, matching the paper's worked example (first period
// popularity = alpha * freq).
func (e *EWMA) Update(sample float64) float64 {
	e.value = e.alpha*sample + (1-e.alpha)*e.value
	e.samples++
	return e.value
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.value }

// Samples returns how many periods have been folded in.
func (e *EWMA) Samples() int { return e.samples }

// LatencySummary collects latency observations and reports mean and
// percentiles. It retains all samples; experiment runs are bounded (a few
// thousand operations) so exact percentiles are affordable.
type LatencySummary struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencySummary returns an empty summary with capacity for n samples.
func NewLatencySummary(n int) *LatencySummary {
	return &LatencySummary{samples: make([]time.Duration, 0, n)}
}

// Add records one latency observation.
func (s *LatencySummary) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// N returns the number of observations.
func (s *LatencySummary) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 when empty).
func (s *LatencySummary) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted samples. It returns 0 when empty.
func (s *LatencySummary) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[len(s.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	return s.samples[rank-1]
}

// DurationSummary is a JSON-friendly snapshot of a latency distribution,
// in milliseconds — the unit every report in this repo uses.
type DurationSummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// MS converts a duration to float milliseconds.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summarize snapshots the distribution.
func (s *LatencySummary) Summarize() DurationSummary {
	return DurationSummary{
		Count:  s.N(),
		MeanMS: MS(s.Mean()),
		P50MS:  MS(s.Percentile(50)),
		P95MS:  MS(s.Percentile(95)),
		P99MS:  MS(s.Percentile(99)),
		MinMS:  MS(s.Min()),
		MaxMS:  MS(s.Max()),
	}
}

// Min returns the smallest observation (0 when empty).
func (s *LatencySummary) Min() time.Duration { return s.Percentile(0) }

// Max returns the largest observation (0 when empty).
func (s *LatencySummary) Max() time.Duration { return s.Percentile(100) }

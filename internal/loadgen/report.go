package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Schema identifies the BENCH_load.json layout; bump on incompatible
// change so CI's -loadcheck rejects stale artifacts instead of
// misreading them. v2 added Point.SlowOps — the trace IDs of each rung's
// slowest in-window completions.
const Schema = "agar-load/v2"

// SlowK is how many of a rung's slowest in-window ops are retained in
// Point.SlowOps.
const SlowK = 8

// kneeEfficiency is the achieved/offered ratio a point must hold to count
// as "keeping up": the saturation knee is the last ascending offered rate
// at or above this efficiency.
const kneeEfficiency = 0.95

// KindStats summarizes one op kind's latency distribution at one offered
// rate. All latencies are microseconds, measured from each op's scheduled
// arrival time.
type KindStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Point is one rung of the offered-load ladder.
type Point struct {
	// OfferedOps is the scheduled arrival rate; AchievedOps is measured
	// completions over the measured window. Achieved well below offered
	// means the server ran out of capacity at this rung.
	OfferedOps  float64 `json:"offered_ops"`
	AchievedOps float64 `json:"achieved_ops"`
	DurationS   float64 `json:"duration_s"`
	WarmupS     float64 `json:"warmup_s"`
	// SendLagMaxUs is the worst scheduler lateness (actual minus scheduled
	// issue time). A large value means the generator itself could not hold
	// the schedule and the point overstates server latency.
	SendLagMaxUs float64              `json:"send_lag_max_us"`
	Ops          map[string]KindStats `json:"ops"`
	// SlowOps lists the rung's SlowK slowest in-window completions, slowest
	// first. Each carries the trace ID the issuer propagated on the wire, so
	// a tail-latency outlier here joins directly against the server-side
	// span breakdown the flight recorder kept under the same ID at
	// /debug/traces.
	SlowOps []SlowOp `json:"slow_ops,omitempty"`
}

// SlowOp is one tail-latency outlier: what was asked, how long it took
// (from its scheduled arrival), and the trace ID to look it up by on the
// servers it touched.
type SlowOp struct {
	Kind  string  `json:"kind"`
	Key   string  `json:"key"`
	Trace string  `json:"trace,omitempty"`
	LatUs float64 `json:"lat_us"`
}

// Knee is the detected saturation point of a sweep.
type Knee struct {
	// OfferedOps is the last offered rate with achieved/offered >=
	// kneeEfficiency; beyond it the server falls off the offered line.
	OfferedOps  float64 `json:"offered_ops"`
	AchievedOps float64 `json:"achieved_ops"`
	// DominantOp and P99Us report the busiest op kind's p99 at the knee —
	// the "latency you can have at the highest load the server sustains".
	DominantOp string  `json:"dominant_op"`
	P99Us      float64 `json:"p99_us"`
}

// Report is the BENCH_load.json artifact: one sweep's points, setup
// echo, and detected knee.
type Report struct {
	Schema      string         `json:"schema"`
	GeneratedAt string         `json:"generated_at,omitempty"`
	Setup       map[string]any `json:"setup,omitempty"`
	Points      []Point        `json:"points"`
	Knee        *Knee          `json:"knee,omitempty"`
}

// summarize sorts one kind's samples and reads exact quantiles off the
// sorted slice (sample counts here are small enough that exactness beats
// a sketch). The input slice is reordered.
func summarize(lats []time.Duration, errs int64) KindStats {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	q := func(p float64) float64 {
		i := int(p * float64(len(lats)))
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return us(lats[i])
	}
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	return KindStats{
		Count:  int64(len(lats)),
		Errors: errs,
		MeanUs: us(sum) / float64(len(lats)),
		P50Us:  q(0.50),
		P90Us:  q(0.90),
		P99Us:  q(0.99),
		P999Us: q(0.999),
		MaxUs:  us(lats[len(lats)-1]),
	}
}

// ComputeKnee scans the points in offered order and records the last one
// that kept achieved within kneeEfficiency of offered; if no point did,
// the highest-achieving point is the ceiling and stands in as the knee.
func (r *Report) ComputeKnee() {
	if len(r.Points) == 0 {
		r.Knee = nil
		return
	}
	pts := make([]Point, len(r.Points))
	copy(pts, r.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].OfferedOps < pts[j].OfferedOps })
	best := -1
	for i, p := range pts {
		if p.OfferedOps > 0 && p.AchievedOps/p.OfferedOps >= kneeEfficiency {
			best = i
		}
	}
	if best < 0 {
		for i, p := range pts {
			if best < 0 || p.AchievedOps > pts[best].AchievedOps {
				best = i
			}
		}
	}
	p := pts[best]
	k := &Knee{OfferedOps: p.OfferedOps, AchievedOps: p.AchievedOps}
	for kind, st := range p.Ops {
		if cur, ok := p.Ops[k.DominantOp]; !ok || st.Count > cur.Count ||
			(st.Count == cur.Count && kind < k.DominantOp) {
			k.DominantOp = kind
		}
	}
	if st, ok := p.Ops[k.DominantOp]; ok {
		k.P99Us = st.P99Us
	}
	r.Knee = k
}

// Validate machine-checks a decoded report: schema match, a non-trivial
// ladder, internally consistent per-point stats, and a knee that refers
// to a real point. CI's agar-bench -loadcheck gate runs exactly this.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("loadgen: schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("loadgen: report has no points")
	}
	for i, p := range r.Points {
		if p.OfferedOps <= 0 {
			return fmt.Errorf("loadgen: point %d offered %v must be positive", i, p.OfferedOps)
		}
		if p.AchievedOps < 0 || p.DurationS <= 0 {
			return fmt.Errorf("loadgen: point %d has achieved %v over %vs", i, p.AchievedOps, p.DurationS)
		}
		if len(p.Ops) == 0 {
			return fmt.Errorf("loadgen: point %d (%v ops/s) recorded no ops", i, p.OfferedOps)
		}
		for kind, st := range p.Ops {
			if st.Count <= 0 {
				return fmt.Errorf("loadgen: point %d op %s count %d", i, kind, st.Count)
			}
			if st.Errors < 0 || st.Errors > st.Count {
				return fmt.Errorf("loadgen: point %d op %s errors %d of %d", i, kind, st.Errors, st.Count)
			}
			if !(st.P50Us <= st.P90Us && st.P90Us <= st.P99Us && st.P99Us <= st.P999Us && st.P999Us <= st.MaxUs) {
				return fmt.Errorf("loadgen: point %d op %s quantiles not monotone: %+v", i, kind, st)
			}
			if st.P50Us < 0 {
				return fmt.Errorf("loadgen: point %d op %s negative latency", i, kind)
			}
		}
		for j, s := range p.SlowOps {
			if s.Kind == "" || s.LatUs < 0 {
				return fmt.Errorf("loadgen: point %d slow op %d malformed: %+v", i, j, s)
			}
			if j > 0 && s.LatUs > p.SlowOps[j-1].LatUs {
				return fmt.Errorf("loadgen: point %d slow ops not slowest-first at %d", i, j)
			}
		}
	}
	if r.Knee != nil {
		found := false
		for _, p := range r.Points {
			if p.OfferedOps == r.Knee.OfferedOps {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("loadgen: knee at %v ops/s matches no point", r.Knee.OfferedOps)
		}
	}
	return nil
}

// MarkdownSection renders the sweep as the SCENARIOS.md table: one row per
// (offered rate, op kind) with the headline quantiles, then the knee line.
func (r *Report) MarkdownSection() string {
	var b strings.Builder
	b.WriteString("| offered ops/s | achieved | eff % | op | count | errs | p50 µs | p99 µs | p99.9 µs | max µs |\n")
	b.WriteString("|---:|---:|---:|:---|---:|---:|---:|---:|---:|---:|\n")
	pts := make([]Point, len(r.Points))
	copy(pts, r.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].OfferedOps < pts[j].OfferedOps })
	for _, p := range pts {
		kinds := make([]string, 0, len(p.Ops))
		for k := range p.Ops {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		eff := 0.0
		if p.OfferedOps > 0 {
			eff = 100 * p.AchievedOps / p.OfferedOps
		}
		for _, kind := range kinds {
			st := p.Ops[kind]
			fmt.Fprintf(&b, "| %.0f | %.0f | %.1f | %s | %d | %d | %.0f | %.0f | %.0f | %.0f |\n",
				p.OfferedOps, p.AchievedOps, eff, kind, st.Count, st.Errors,
				st.P50Us, st.P99Us, st.P999Us, st.MaxUs)
		}
	}
	if r.Knee != nil {
		fmt.Fprintf(&b, "\nSaturation knee: **%.0f ops/s offered** (achieved %.0f, %s p99 %.0f µs). ",
			r.Knee.OfferedOps, r.Knee.AchievedOps, r.Knee.DominantOp, r.Knee.P99Us)
		b.WriteString("Beyond the knee, achieved throughput falls off the offered line and queueing delay dominates the tail.\n")
	}
	return b.String()
}

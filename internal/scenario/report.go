package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/agardist/agar/internal/stats"
	"github.com/agardist/agar/internal/ycsb"
)

// ReportSchema versions the JSON layout of a scenario report.
const ReportSchema = "agar/scenario-report/v1"

// ArmPhase is one arm's metrics over one phase.
type ArmPhase struct {
	Arm         string  `json:"arm"`
	Ops         int     `json:"ops"`
	Errors      int     `json:"errors"`
	MeanMS      float64 `json:"mean_ms"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	HitRatio    float64 `json:"hit_ratio"`
	FullHits    int     `json:"full_hits"`
	PartialHits int     `json:"partial_hits"`
	Misses      int     `json:"misses"`
	Reconfigs   int     `json:"reconfigs"`
	// PeerChunks totals chunks served by cooperative peer caches (only
	// nonzero for the agar arm of peered scenarios).
	PeerChunks int `json:"peer_chunks,omitempty"`
	// Updates counts measured mutations in update/RMW phases;
	// UpdateErrors the failed ones.
	Updates      int `json:"updates,omitempty"`
	UpdateErrors int `json:"update_errors,omitempty"`
	// StaleReads counts successful reads that returned a payload the
	// run's own writes had already superseded — zero on every coherent
	// arm, the headline damage number on "!stale" arms.
	StaleReads int `json:"stale_reads,omitempty"`
	// UpdateMeanMS and UpdateP99MS summarise mutation latencies.
	UpdateMeanMS float64 `json:"update_mean_ms,omitempty"`
	UpdateP99MS  float64 `json:"update_p99_ms,omitempty"`
}

// PhaseReport is one phase across every arm.
type PhaseReport struct {
	Name      string     `json:"name"`
	DurationS float64    `json:"duration_s"`
	Workload  Workload   `json:"workload"`
	Events    []Event    `json:"events,omitempty"`
	Arms      []ArmPhase `json:"arms"`
}

// ArmTotal aggregates one arm over the whole scenario. Mean is
// ops-weighted across phases; P99MS is the worst phase's p99.
type ArmTotal struct {
	Arm      string  `json:"arm"`
	Ops      int     `json:"ops"`
	Errors   int     `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	P99MS    float64 `json:"p99_ms"`
	HitRatio float64 `json:"hit_ratio"`
	// Updates and StaleReads total the arm's mutations and stale reads
	// over every phase (mutating scenarios only).
	Updates    int `json:"updates,omitempty"`
	StaleReads int `json:"stale_reads,omitempty"`
}

// Delta is a paired comparison of Agar's mean latency against another arm
// over one phase: negative percentages mean Agar was faster.
type Delta struct {
	Phase    string  `json:"phase"`
	Arm      string  `json:"arm"`
	AgarMS   float64 `json:"agar_ms"`
	ArmMS    float64 `json:"arm_ms"`
	DeltaPct float64 `json:"delta_pct"`
}

// Report is the machine-readable outcome of one scenario run.
type Report struct {
	Schema      string   `json:"schema"`
	Scenario    string   `json:"scenario"`
	Description string   `json:"description,omitempty"`
	Region      string   `json:"region"`
	PeerRegions []string `json:"peer_regions,omitempty"`
	// BackendStore and StoreTiers echo the spec's blob-store tier
	// selection; tier-swept runs carry "Arm@tier" labels in Arms.
	BackendStore string   `json:"backend_store,omitempty"`
	StoreTiers   []string `json:"store_tiers,omitempty"`
	// Coherence echoes the spec's coherence mode for mutating scenarios;
	// "paired" runs carry "Arm!stale" twins in Arms.
	Coherence string        `json:"coherence,omitempty"`
	Seed      int64         `json:"seed"`
	Arms      []string      `json:"arms"`
	Phases    []PhaseReport `json:"phases"`
	Totals    []ArmTotal    `json:"totals"`
	Deltas    []Delta       `json:"deltas,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// buildReport folds per-arm-run per-phase results into the report layout.
// labels name the arm runs ("Agar", or "Agar@remote-slow" in a tier
// sweep); agarIdx is the delta baseline run, -1 when no Agar arm ran.
func buildReport(spec Spec, region string, labels []string, agarIdx int, perArm [][]ycsb.Result, opts Options) *Report {
	rep := &Report{
		Schema:       ReportSchema,
		Scenario:     spec.Name,
		Description:  spec.Description,
		Region:       region,
		PeerRegions:  spec.PeerRegions,
		BackendStore: spec.BackendStore,
		StoreTiers:   spec.StoreTiers,
		Coherence:    spec.Coherence,
		Seed:         opts.Seed,
		Arms:         labels,
	}

	for pi, p := range spec.Phases {
		pr := PhaseReport{
			Name:      p.Name,
			DurationS: p.Duration.Seconds(),
			Workload:  p.Workload,
			Events:    p.Events,
		}
		for ai := range labels {
			r := perArm[ai][pi]
			pr.Arms = append(pr.Arms, ArmPhase{
				Arm:          labels[ai],
				Ops:          r.Operations,
				Errors:       r.Errors,
				MeanMS:       stats.MS(r.Mean),
				P50MS:        stats.MS(r.P50),
				P95MS:        stats.MS(r.P95),
				P99MS:        stats.MS(r.P99),
				MaxMS:        stats.MS(r.Max),
				HitRatio:     r.HitRatio(),
				FullHits:     r.FullHits,
				PartialHits:  r.PartialHits,
				Misses:       r.Misses,
				Reconfigs:    r.Reconfigs,
				PeerChunks:   r.PeerChunks,
				Updates:      r.Updates,
				UpdateErrors: r.UpdateErrors,
				StaleReads:   r.StaleReads,
				UpdateMeanMS: stats.MS(r.UpdateMean),
				UpdateP99MS:  stats.MS(r.UpdateP99),
			})
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Totals: means weighted by the reads that produced latency samples
	// (errored reads carry no latency), summed hit classes over all
	// requests, worst-phase p99.
	for ai := range labels {
		t := ArmTotal{Arm: labels[ai]}
		var weighted float64
		hits, measured := 0, 0
		for _, r := range perArm[ai] {
			t.Ops += r.Operations
			t.Errors += r.Errors
			t.Updates += r.Updates
			t.StaleReads += r.StaleReads
			n := r.Operations - r.Errors
			measured += n
			weighted += stats.MS(r.Mean) * float64(n)
			hits += r.FullHits + r.PartialHits
			if p99 := stats.MS(r.P99); p99 > t.P99MS {
				t.P99MS = p99
			}
		}
		if measured > 0 {
			t.MeanMS = weighted / float64(measured)
		}
		if t.Ops > 0 {
			t.HitRatio = float64(hits) / float64(t.Ops)
		}
		rep.Totals = append(rep.Totals, t)
	}

	// Paired deltas: the baseline Agar run (first tier) against every other
	// arm run, per phase — in a tier sweep this includes Agar on the other
	// tiers, which is exactly the "what does the slow tier cost" number.
	if agarIdx >= 0 {
		for pi, p := range spec.Phases {
			agarMS := stats.MS(perArm[agarIdx][pi].Mean)
			for ai := range labels {
				if ai == agarIdx {
					continue
				}
				armMS := stats.MS(perArm[ai][pi].Mean)
				d := Delta{Phase: p.Name, Arm: labels[ai], AgarMS: agarMS, ArmMS: armMS}
				if armMS > 0 {
					d.DeltaPct = (agarMS - armMS) / armMS * 100
				}
				rep.Deltas = append(rep.Deltas, d)
			}
		}
	}
	return rep
}

// mutating reports whether any arm ran measured updates — the switch for
// the update/stale-read report columns.
func (r *Report) mutating() bool {
	for _, p := range r.Phases {
		for _, a := range p.Arms {
			if a.Updates > 0 {
				return true
			}
		}
	}
	return false
}

// Markdown renders the human-readable summary: per-phase tables plus the
// paired delta matrix.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Scenario: %s\n\n", r.Scenario)
	if r.Description != "" {
		fmt.Fprintf(&b, "%s\n\n", r.Description)
	}
	fmt.Fprintf(&b, "region `%s`", r.Region)
	if len(r.PeerRegions) > 0 {
		fmt.Fprintf(&b, " · peers: %s", strings.Join(r.PeerRegions, ", "))
	}
	if r.BackendStore != "" {
		fmt.Fprintf(&b, " · store tier: %s", r.BackendStore)
	}
	if len(r.StoreTiers) > 0 {
		fmt.Fprintf(&b, " · store tiers: %s", strings.Join(r.StoreTiers, ", "))
	}
	fmt.Fprintf(&b, " · seed %d · arms: %s\n", r.Seed, strings.Join(r.Arms, ", "))

	// Peered scenarios get a peer-chunk column — driven by the spec, not
	// the results, so a mesh serving zero chunks shows a suspicious 0
	// instead of silently dropping the column. Mutating scenarios get the
	// update and stale-read columns on the same principle: a coherent arm's
	// honest 0 stale reads is the result.
	peered := len(r.PeerRegions) > 0
	mutating := r.mutating()
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "\n### Phase %s (%.0fs", p.Name, p.DurationS)
		fmt.Fprintf(&b, ", %s", p.Workload.Kind)
		for _, e := range p.Events {
			fmt.Fprintf(&b, ", %s@%s", e.Kind, e.At.Round(time.Second))
		}
		b.WriteString(")\n\n")
		if mutating {
			b.WriteString("| arm | ops | mean | p99 | hit ratio | updates | upd p99 | stale reads | errors |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
			for _, a := range p.Arms {
				fmt.Fprintf(&b, "| %s | %d | %.0f ms | %.0f ms | %.3f | %d | %.0f ms | %d | %d |\n",
					a.Arm, a.Ops, a.MeanMS, a.P99MS, a.HitRatio, a.Updates, a.UpdateP99MS, a.StaleReads, a.Errors+a.UpdateErrors)
			}
			continue
		}
		if peered {
			b.WriteString("| arm | ops | mean | p50 | p95 | p99 | hit ratio | peer chunks | errors |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
			for _, a := range p.Arms {
				fmt.Fprintf(&b, "| %s | %d | %.0f ms | %.0f ms | %.0f ms | %.0f ms | %.3f | %d | %d |\n",
					a.Arm, a.Ops, a.MeanMS, a.P50MS, a.P95MS, a.P99MS, a.HitRatio, a.PeerChunks, a.Errors)
			}
			continue
		}
		b.WriteString("| arm | ops | mean | p50 | p95 | p99 | hit ratio | errors |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, a := range p.Arms {
			fmt.Fprintf(&b, "| %s | %d | %.0f ms | %.0f ms | %.0f ms | %.0f ms | %.3f | %d |\n",
				a.Arm, a.Ops, a.MeanMS, a.P50MS, a.P95MS, a.P99MS, a.HitRatio, a.Errors)
		}
	}

	b.WriteString("\n### Totals\n\n")
	if mutating {
		b.WriteString("| arm | ops | mean | worst p99 | hit ratio | updates | stale reads | errors |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, t := range r.Totals {
			fmt.Fprintf(&b, "| %s | %d | %.0f ms | %.0f ms | %.3f | %d | %d | %d |\n",
				t.Arm, t.Ops, t.MeanMS, t.P99MS, t.HitRatio, t.Updates, t.StaleReads, t.Errors)
		}
	} else {
		b.WriteString("| arm | ops | mean | worst p99 | hit ratio | errors |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		for _, t := range r.Totals {
			fmt.Fprintf(&b, "| %s | %d | %.0f ms | %.0f ms | %.3f | %d |\n",
				t.Arm, t.Ops, t.MeanMS, t.P99MS, t.HitRatio, t.Errors)
		}
	}

	if len(r.Deltas) > 0 {
		b.WriteString("\n### Paired deltas (Agar mean latency vs arm; negative = Agar faster)\n\n")
		// One row per phase, one column per non-Agar arm.
		cols := []string{}
		seen := map[string]bool{}
		for _, d := range r.Deltas {
			if !seen[d.Arm] {
				seen[d.Arm] = true
				cols = append(cols, d.Arm)
			}
		}
		fmt.Fprintf(&b, "| phase | %s |\n", strings.Join(cols, " | "))
		b.WriteString("|---|" + strings.Repeat("---:|", len(cols)) + "\n")
		byPhase := map[string]map[string]Delta{}
		order := []string{}
		for _, d := range r.Deltas {
			if byPhase[d.Phase] == nil {
				byPhase[d.Phase] = map[string]Delta{}
				order = append(order, d.Phase)
			}
			byPhase[d.Phase][d.Arm] = d
		}
		for _, phase := range order {
			fmt.Fprintf(&b, "| %s |", phase)
			for _, c := range cols {
				d, ok := byPhase[phase][c]
				if !ok || d.ArmMS == 0 {
					b.WriteString(" — |")
					continue
				}
				fmt.Fprintf(&b, " %+.1f%% |", d.DeltaPct)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

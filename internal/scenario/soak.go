package scenario

import (
	"fmt"
	"time"

	"github.com/agardist/agar/internal/experiments"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/ycsb"
)

// Soak metric names: the per-sample read-path aggregates a soak run feeds
// its monitor store, labelled {arm}. Rules and drift checks in a SoakSpec
// reference these.
const (
	MetricSoakHitRatio   = "soak_hit_ratio"
	MetricSoakReadMeanMS = "soak_read_mean_ms"
	MetricSoakReadP99MS  = "soak_read_p99_ms"
	MetricSoakErrorRate  = "soak_error_rate"
	// MetricSoakStaleReads counts reads in the window that returned a
	// payload the soak's own writes had superseded — only emitted (with
	// MetricSoakWriteP99MS) when the soak spec has update/RMW phases.
	MetricSoakStaleReads = "soak_stale_reads"
	// MetricSoakWriteP99MS is the window's p99 write latency.
	MetricSoakWriteP99MS = "soak_write_p99_ms"
)

// SoakSpec declares a long-soak run: a multi-phase scenario played for
// hours of virtual time, sliced into fixed sample windows whose read-path
// aggregates stream through the monitor's rule evaluator as they happen
// and through its drift detector at the end. Two arms run the same
// timeline on the Agar strategy: "baseline" with every chaos event
// stripped, and "brownout" with the spec's events live — so an alert or a
// drift flag on the brownout arm that the baseline arm never shows is
// attributable to the injected chaos, not to the workload.
type SoakSpec struct {
	Spec Spec `json:"spec"`
	// SampleEvery is the virtual-time width of one sample window (default
	// one minute); each window contributes one point per soak metric.
	SampleEvery time.Duration `json:"sample_every,omitempty"`
	// OpsPerSample caps the measured reads per sample window (default 120).
	OpsPerSample int `json:"ops_per_sample,omitempty"`
	// Rules are evaluated at every sample boundary on the arm's own store.
	Rules []monitor.Rule `json:"rules,omitempty"`
	// Drift checks run over the whole timeline after the arm finishes.
	Drift []monitor.DriftCheck `json:"drift,omitempty"`
}

func (s SoakSpec) withDefaults() SoakSpec {
	if s.SampleEvery <= 0 {
		s.SampleEvery = time.Minute
	}
	if s.OpsPerSample <= 0 {
		s.OpsPerSample = 120
	}
	return s
}

// SoakSample is one sample window's read-path aggregate.
type SoakSample struct {
	// OffsetMS is the window's end, in virtual milliseconds from the
	// measurement epoch.
	OffsetMS float64 `json:"offset_ms"`
	Phase    string  `json:"phase"`
	Ops      int     `json:"ops"`
	HitRatio float64 `json:"hit_ratio"`
	MeanMS   float64 `json:"mean_ms"`
	P99MS    float64 `json:"p99_ms"`
	// ErrorRate is failed reads over measured reads in the window.
	ErrorRate float64 `json:"error_rate"`
	// Updates, StaleReads and WriteP99MS carry the window's mutation-side
	// aggregates for soaks with update/RMW phases.
	Updates    int     `json:"updates,omitempty"`
	StaleReads int     `json:"stale_reads,omitempty"`
	WriteP99MS float64 `json:"write_p99_ms,omitempty"`
}

// SoakAlert is one rule transition on the soak timeline.
type SoakAlert struct {
	Rule string `json:"rule"`
	// State is "firing" or "ok" (resolved).
	State string `json:"state"`
	// OffsetMS stamps the transition in virtual milliseconds from the
	// measurement epoch.
	OffsetMS float64 `json:"offset_ms"`
	Value    float64 `json:"value,omitempty"`
}

// SoakArmReport is one arm's full soak outcome.
type SoakArmReport struct {
	Arm      string                 `json:"arm"`
	Samples  []SoakSample           `json:"samples"`
	Alerts   []SoakAlert            `json:"alerts,omitempty"`
	Drift    []monitor.DriftFinding `json:"drift,omitempty"`
	TotalOps int                    `json:"total_ops"`
	// FiringCount counts firing transitions (resolves excluded).
	FiringCount int `json:"firing_count"`
	// DriftFlagged counts drift findings whose Flagged is set.
	DriftFlagged int `json:"drift_flagged"`
}

// FiringOffsets returns the virtual offsets (ms) of the named rule's
// firing transitions, in timeline order.
func (a SoakArmReport) FiringOffsets(rule string) []float64 {
	var out []float64
	for _, al := range a.Alerts {
		if al.Rule == rule && al.State == string(monitor.StateFiring) {
			out = append(out, al.OffsetMS)
		}
	}
	return out
}

// ResolvedAfter reports whether the named rule's last transition on the
// timeline is a resolve — the alert did not stay stuck firing.
func (a SoakArmReport) ResolvedAfter(rule string) bool {
	last := ""
	for _, al := range a.Alerts {
		if al.Rule == rule {
			last = al.State
		}
	}
	return last == string(monitor.StateOK)
}

// SoakReport is the BENCH_soak.json document.
type SoakReport struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Region      string `json:"region"`
	// VirtualMS is the soak's total virtual length; SampleEveryMS the
	// sample window width.
	VirtualMS     float64         `json:"virtual_ms"`
	SampleEveryMS float64         `json:"sample_every_ms"`
	OpsPerSample  int             `json:"ops_per_sample"`
	Seed          int64           `json:"seed"`
	Rules         []monitor.Rule  `json:"rules"`
	Arms          []SoakArmReport `json:"arms"`
	ElapsedMS     float64         `json:"elapsed_ms"`
}

// Arm returns the named arm's report, nil when absent.
func (r *SoakReport) Arm(name string) *SoakArmReport {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// SoakSchema is the BENCH_soak.json schema identifier.
const SoakSchema = "agar/soak-report/v1"

// stripEvents returns a copy of the spec with every chaos event removed —
// the soak's baseline arm.
func stripEvents(spec Spec) Spec {
	out := spec
	out.Phases = make([]Phase, len(spec.Phases))
	for i, p := range spec.Phases {
		np := p
		np.Events = nil
		out.Phases[i] = np
	}
	return out
}

// RunSoak plays the soak's two arms and assembles the report. Both arms
// share one loaded deployment (like Run) and replay identical seeded
// workloads, so their sample series pair window by window. A soak plays
// one tier in one coherence mode: specs that sweep several store tiers or
// pair coherence modes are refused. The soak always plays the Agar arm and
// caps each sample window at OpsPerSample, so options that set Arms or
// OpCap are refused too rather than silently dropped.
func RunSoak(s SoakSpec, opts Options) (*SoakReport, error) {
	if len(opts.Arms) > 0 || opts.OpCap != 0 {
		return nil, fmt.Errorf("soak %q: a soak plays the Agar arm capped by OpsPerSample; Options.Arms and Options.OpCap are not used", s.Spec.Name)
	}
	s = s.withDefaults()
	d, err := newDeployment(s.Spec, opts)
	if err != nil {
		return nil, err
	}
	tiers, _ := s.Spec.storeTiers()
	modes, paired := s.Spec.coherenceModes()
	if len(tiers) > 1 || paired {
		return nil, fmt.Errorf("soak %q: a soak plays one store tier in one coherence mode; sweep tiers or pair coherence with Run", s.Spec.Name)
	}

	start := time.Now()
	rep := &SoakReport{
		Schema:        SoakSchema,
		Name:          s.Spec.Name,
		Description:   s.Spec.Description,
		Region:        d.region.String(),
		VirtualMS:     float64(s.Spec.TotalDuration()) / float64(time.Millisecond),
		SampleEveryMS: float64(s.SampleEvery) / float64(time.Millisecond),
		OpsPerSample:  s.OpsPerSample,
		Seed:          d.opts.Seed,
		Rules:         s.Rules,
	}
	arms := []struct {
		name string
		spec Spec
	}{
		{"baseline", stripEvents(s.Spec)},
		{"brownout", s.Spec},
	}
	for _, arm := range arms {
		ar := armRun{strat: experiments.Strategy{Kind: experiments.StratAgar}, tier: tiers[0], coherent: modes[0], label: arm.name}
		a, err := soakArm(d, arm.spec, s, ar)
		if err != nil {
			return nil, fmt.Errorf("soak %q arm %s: %w", s.Spec.Name, arm.name, err)
		}
		rep.Arms = append(rep.Arms, a)
	}
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// soakArm plays one arm's timeline in sample windows, feeding each window's
// aggregates through the arm's own monitor store and evaluator as it ends
// and the whole series through the drift checks after the last one.
func soakArm(d *deployment, spec Spec, s SoakSpec, ar armRun) (SoakArmReport, error) {
	// A store sized to hold every sample of the whole soak, and an
	// evaluator replaying the rule set at each window.
	slices := int(spec.TotalDuration()/s.SampleEvery) + len(spec.Phases) + 8
	store := monitor.NewStore(slices)
	eval := monitor.NewEvaluator(store, s.Rules)
	labels := map[string]string{"arm": ar.label}
	mutating := spec.hasUpdates()

	report := SoakArmReport{Arm: ar.label}
	var epoch, last time.Time
	err := d.playArm(spec, ar, s.SampleEvery, s.OpsPerSample, func(phase int, res ycsb.Result, start, t time.Time) {
		epoch, last = start, t
		// A window the previous phase's last operation overshot whole
		// measured nothing: it has no aggregates, and the rules see no data
		// for it rather than zero latencies.
		if res.Operations == 0 {
			return
		}
		errRate := float64(res.Errors) / float64(res.Operations)
		store.Append(MetricSoakHitRatio, labels, t, res.HitRatio())
		store.Append(MetricSoakReadMeanMS, labels, t, float64(res.Mean)/float64(time.Millisecond))
		store.Append(MetricSoakReadP99MS, labels, t, float64(res.P99)/float64(time.Millisecond))
		store.Append(MetricSoakErrorRate, labels, t, errRate)
		writeP99MS := 0.0
		if mutating {
			writeP99MS = float64(res.UpdateP99) / float64(time.Millisecond)
			store.Append(MetricSoakStaleReads, labels, t, float64(res.StaleReads))
			store.Append(MetricSoakWriteP99MS, labels, t, writeP99MS)
		}
		off := float64(t.Sub(epoch)) / float64(time.Millisecond)
		for _, a := range eval.Eval(t) {
			report.Alerts = append(report.Alerts, SoakAlert{Rule: a.Rule, State: string(a.State), OffsetMS: off, Value: a.Value})
			if a.State == monitor.StateFiring {
				report.FiringCount++
			}
		}
		report.Samples = append(report.Samples, SoakSample{
			OffsetMS:   off,
			Phase:      spec.Phases[phase].Name,
			Ops:        res.Operations,
			HitRatio:   res.HitRatio(),
			MeanMS:     float64(res.Mean) / float64(time.Millisecond),
			P99MS:      float64(res.P99) / float64(time.Millisecond),
			ErrorRate:  errRate,
			Updates:    res.Updates,
			StaleReads: res.StaleReads,
			WriteP99MS: writeP99MS,
		})
		report.TotalOps += res.Operations
	})
	if err != nil {
		return SoakArmReport{}, err
	}
	report.Drift = monitor.DetectDrift(store, s.Drift, epoch, last)
	for _, f := range report.Drift {
		if f.Flagged {
			report.DriftFlagged++
		}
	}
	return report, nil
}

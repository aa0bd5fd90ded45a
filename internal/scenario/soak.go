package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/agardist/agar/internal/client"
	"github.com/agardist/agar/internal/experiments"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/workload"
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
// workloads, so their sample series pair window by window.
func RunSoak(s SoakSpec, opts Options) (*SoakReport, error) {
	s = s.withDefaults()
	if err := s.Spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	region := geo.Frankfurt
	if s.Spec.Region != "" {
		region, _ = geo.ParseRegion(s.Spec.Region)
	}

	params := experiments.DefaultParams()
	params.NumObjects = s.Spec.objects()
	params.Seed = opts.Seed
	if s.Spec.Clients > 0 {
		params.Clients = s.Spec.Clients
	}
	d, err := experiments.NewDeployment(params)
	if err != nil {
		return nil, fmt.Errorf("soak %q: %w", s.Spec.Name, err)
	}

	start := time.Now()
	rep := &SoakReport{
		Schema:        SoakSchema,
		Name:          s.Spec.Name,
		Description:   s.Spec.Description,
		Region:        region.String(),
		VirtualMS:     float64(s.Spec.TotalDuration()) / float64(time.Millisecond),
		SampleEveryMS: float64(s.SampleEvery) / float64(time.Millisecond),
		OpsPerSample:  s.OpsPerSample,
		Seed:          opts.Seed,
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
		ar, err := soakArm(d, arm.spec, s, opts, arm.name, region)
		if err != nil {
			return nil, fmt.Errorf("soak %q arm %s: %w", s.Spec.Name, arm.name, err)
		}
		rep.Arms = append(rep.Arms, *ar)
	}
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// soakArm plays one arm's timeline in sample-window slices, feeding each
// window's aggregates through the arm's own monitor store and evaluator.
func soakArm(d *experiments.Deployment, spec Spec, s SoakSpec, opts Options, armName string, region geo.RegionID) (*SoakArmReport, error) {
	cacheMB := spec.CacheMB
	if cacheMB <= 0 {
		cacheMB = 10
	}
	clients := d.Params.Clients

	clock := netsim.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	sampler := netsim.NewSampler(d.Matrix, d.Params.Jitter, opts.Seed)
	env := d.Env(sampler)
	tiers, _ := spec.storeTiers()
	tier := tiers[0]
	if !tier.Baseline() {
		env.StoreLatency = tier.Latency
		env.StoreErrRate = tier.ErrRate
		if tier.BandwidthBps > 0 {
			env.ChunkBytes = d.PaperChunkBytes()
			sampler.CapBandwidth(netsim.AnyRegion, netsim.AnyRegion, tier.BandwidthBps)
		}
	}
	if env.ChunkBytes == 0 && spec.hasBandwidthCaps() {
		env.ChunkBytes = d.PaperChunkBytes()
	}
	arm := experiments.Strategy{Kind: experiments.StratAgar}
	reader, node, err := d.NewReader(arm, env, region, cacheMB, opts.Seed)
	if err != nil {
		return nil, err
	}

	n := spec.objects()
	if opts.WarmupOps > 0 {
		if _, err := ycsb.Run(ycsb.RunConfig{
			Reader:     reader,
			Generator:  spec.Phases[0].Workload.generator(n, opts.Seed+101),
			Operations: opts.WarmupOps,
			Clock:      clock,
			Node:       node,
			Clients:    clients,
		}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	epoch := clock.Now()
	comp := compile(spec, epoch)
	sampler.SetChaos(clock, comp.schedule)
	defer sampler.SetChaos(nil, nil)
	clearCache := cacheClearer(reader, node)

	// Mutating soaks get the same write path as scenario runs: coherent
	// (invalidating) unless the spec opts out, with stale reads judged
	// against the arm's own writes.
	var mut *mutator
	if spec.hasUpdates() {
		var invs []client.Invalidator
		if spec.Coherence != CoherenceNone {
			if c := armCache(reader, node); c != nil {
				invs = append(invs, c)
			}
		}
		mut = newMutator(env, region, d.Params.ObjectBytes, invs...)
	}

	// The arm's monitor side: a store sized to hold every sample of the
	// whole soak, and an evaluator replaying the rule set at each window.
	slices := int(spec.TotalDuration()/s.SampleEvery) + len(spec.Phases) + 8
	store := monitor.NewStore(slices)
	eval := monitor.NewEvaluator(store, s.Rules)
	labels := map[string]string{"arm": armName}

	report := &SoakArmReport{Arm: armName}
	var elapsed time.Duration
	for i, p := range spec.Phases {
		phaseEnd := epoch.Add(elapsed + p.Duration)
		elapsed += p.Duration
		var gen workload.Generator = p.Workload.generator(n, opts.Seed+int64(i)*1009+7)
		if len(comp.flash[i]) > 0 {
			gen = &flashGen{
				clock:   clock,
				epoch:   epoch,
				base:    gen,
				windows: comp.flash[i],
				rng:     rand.New(rand.NewSource(opts.Seed + int64(i)*31 + 13)),
			}
		}
		var beforeOp func(time.Time)
		if crashes := comp.crashes[i]; len(crashes) > 0 {
			beforeOp = func(now time.Time) {
				off := now.Sub(epoch)
				for _, c := range crashes {
					if !c.fired && off >= c.at {
						c.fired = true
						if clearCache != nil {
							clearCache()
						}
					}
				}
			}
		}
		for clock.Now().Before(phaseEnd) {
			sliceEnd := clock.Now().Add(s.SampleEvery)
			if sliceEnd.After(phaseEnd) {
				sliceEnd = phaseEnd
			}
			runCfg := ycsb.RunConfig{
				Reader:     reader,
				Generator:  gen,
				Operations: s.OpsPerSample,
				Clock:      clock,
				Node:       node,
				Clients:    clients,
				Deadline:   sliceEnd,
				BeforeOp:   beforeOp,
			}
			if mut != nil {
				runCfg.UpdateFrac = p.Updates
				runCfg.RMWFrac = p.RMW
				runCfg.Update = mut.update
				runCfg.Verify = mut.verify
				runCfg.MixSeed = opts.Seed + int64(i)*389 + 23
			}
			res, err := ycsb.Run(runCfg)
			if err != nil {
				return nil, fmt.Errorf("phase %q: %w", p.Name, err)
			}
			// The op cap may end the window early; jump to its boundary so
			// sample timestamps stay evenly spaced and later event windows
			// arrive on schedule.
			if now := clock.Now(); now.Before(sliceEnd) {
				clock.Advance(sliceEnd.Sub(now))
			}
			t := clock.Now()
			errRate := 0.0
			if res.Operations > 0 {
				errRate = float64(res.Errors) / float64(res.Operations)
			}
			store.Append(MetricSoakHitRatio, labels, t, res.HitRatio())
			store.Append(MetricSoakReadMeanMS, labels, t, float64(res.Mean)/float64(time.Millisecond))
			store.Append(MetricSoakReadP99MS, labels, t, float64(res.P99)/float64(time.Millisecond))
			store.Append(MetricSoakErrorRate, labels, t, errRate)
			writeP99MS := 0.0
			if mut != nil {
				writeP99MS = float64(res.UpdateP99) / float64(time.Millisecond)
				store.Append(MetricSoakStaleReads, labels, t, float64(res.StaleReads))
				store.Append(MetricSoakWriteP99MS, labels, t, writeP99MS)
			}
			off := float64(t.Sub(epoch)) / float64(time.Millisecond)
			for _, a := range eval.Eval(t) {
				sa := SoakAlert{Rule: a.Rule, State: string(a.State), OffsetMS: off, Value: a.Value}
				report.Alerts = append(report.Alerts, sa)
				if a.State == monitor.StateFiring {
					report.FiringCount++
				}
			}
			report.Samples = append(report.Samples, SoakSample{
				OffsetMS:   off,
				Phase:      p.Name,
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
		}
		for _, c := range comp.crashes[i] {
			if !c.fired {
				c.fired = true
				if clearCache != nil {
					clearCache()
				}
			}
		}
	}
	report.Drift = monitor.DetectDrift(store, s.Drift, epoch, clock.Now())
	for _, f := range report.Drift {
		if f.Flagged {
			report.DriftFlagged++
		}
	}
	return report, nil
}

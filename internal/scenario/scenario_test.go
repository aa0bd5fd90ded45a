package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/agardist/agar/internal/experiments"
)

// reduced shrinks a library spec so end-to-end tests replay its exact
// shape in a few hundred operations.
func reduced(s Spec) Spec {
	out := s.Scale(0.15)
	out.Objects = 60
	// Rebound hot ranges into the smaller key space.
	for i, p := range out.Phases {
		if p.Workload.Kind == WorkloadHotspot {
			out.Phases[i].Workload.HotLo %= 40
			out.Phases[i].Workload.HotHi = out.Phases[i].Workload.HotLo + 20
		}
		for j, e := range p.Events {
			if e.Kind == EventFlashCrowd {
				out.Phases[i].Events[j].HotLo %= 40
				out.Phases[i].Events[j].HotHi = out.Phases[i].Events[j].HotLo + 10
			}
		}
	}
	return out
}

func reducedOpts() Options {
	return Options{OpCap: 200, WarmupOps: 60, Seed: 1}
}

func TestLibraryValidatesAndCoversRequiredScenarios(t *testing.T) {
	lib := Library()
	if len(lib) < 5 {
		t.Fatalf("library has %d scenarios, want >= 5", len(lib))
	}
	seen := map[string]bool{}
	for _, s := range lib {
		if err := s.Validate(); err != nil {
			t.Errorf("library spec %q does not validate: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"baseline", "degraded-latency", "partition", "high-load", "diurnal-shift", "region-failover"} {
		if !seen[want] {
			t.Errorf("library is missing the %q scenario", want)
		}
	}
}

func TestSpecValidationRejectsBadSpecs(t *testing.T) {
	base := Phase{Name: "p", Duration: time.Minute, Workload: Workload{Kind: WorkloadZipfian}}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no name", Spec{Phases: []Phase{base}}},
		{"no phases", Spec{Name: "x"}},
		{"bad region", Spec{Name: "x", Region: "atlantis", Phases: []Phase{base}}},
		{"zero duration", Spec{Name: "x", Phases: []Phase{{Name: "p", Workload: Workload{Kind: WorkloadZipfian}}}}},
		{"dup phase", Spec{Name: "x", Phases: []Phase{base, base}}},
		{"bad workload", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute, Workload: Workload{Kind: "weird"}}}}},
		{"hotspot range", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadHotspot, HotLo: 10, HotHi: 5, HotFrac: 0.5}}}}},
		{"event beyond phase", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian},
			Events:   []Event{{Kind: EventCacheCrash, At: 2 * time.Minute}}}}}},
		{"unknown event", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian},
			Events:   []Event{{Kind: "meteor-strike"}}}}}},
		{"partition wildcard", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian},
			Events:   []Event{{Kind: EventPartition, From: "*", To: "dublin"}}}}}},
		{"outage without region", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian},
			Events:   []Event{{Kind: EventRegionOutage}}}}}},
		{"shift without effect", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian},
			Events:   []Event{{Kind: EventLatencyShift, From: "*", To: "*"}}}}}},
		{"empty mix", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadMix}}}}},
		{"mix zero weight", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadMix, Components: []MixComponent{
				{Weight: 0, Workload: Workload{Kind: WorkloadUniform}}}}}}}},
		{"nested mix", Spec{Name: "x", Phases: []Phase{{Name: "p", Duration: time.Minute,
			Workload: Workload{Kind: WorkloadMix, Components: []MixComponent{
				{Weight: 1, Workload: Workload{Kind: WorkloadMix, Components: []MixComponent{
					{Weight: 1, Workload: Workload{Kind: WorkloadUniform}}}}}}}}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestScalePreservesShape(t *testing.T) {
	s, ok := Lookup("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd scenario missing")
	}
	h := s.Scale(0.5)
	if got, want := h.TotalDuration(), s.TotalDuration()/2; got != want {
		t.Fatalf("scaled total %v, want %v", got, want)
	}
	e, se := h.Phases[1].Events[0], s.Phases[1].Events[0]
	if e.At != se.At/2 || e.Duration != se.Duration/2 {
		t.Fatalf("event offsets not scaled: %v/%v", e.At, e.Duration)
	}
	// The original is untouched.
	if s.Phases[1].Events[0].At != 10*time.Second {
		t.Fatalf("Scale mutated the receiver")
	}
}

// TestLibraryEndToEnd replays every built-in scenario at reduced scale
// across the default arms and checks the report's structure.
func TestLibraryEndToEnd(t *testing.T) {
	for _, spec := range Library() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(reduced(spec), reducedOpts())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Schema != ReportSchema {
				t.Errorf("schema %q", rep.Schema)
			}
			if len(rep.Arms) < 3 {
				t.Fatalf("report has %d arms, want >= 3", len(rep.Arms))
			}
			if len(rep.Phases) != len(spec.Phases) {
				t.Fatalf("report has %d phases, want %d", len(rep.Phases), len(spec.Phases))
			}
			for _, p := range rep.Phases {
				if len(p.Arms) != len(rep.Arms) {
					t.Fatalf("phase %q has %d arm rows, want %d", p.Name, len(p.Arms), len(rep.Arms))
				}
				for _, a := range p.Arms {
					if a.Ops <= 0 {
						t.Errorf("phase %q arm %s measured no operations", p.Name, a.Arm)
					}
					if a.MeanMS <= 0 {
						t.Errorf("phase %q arm %s mean %.2f ms", p.Name, a.Arm, a.MeanMS)
					}
					if a.HitRatio < 0 || a.HitRatio > 1 {
						t.Errorf("phase %q arm %s hit ratio %v", p.Name, a.Arm, a.HitRatio)
					}
					if a.Errors > 0 {
						t.Errorf("phase %q arm %s saw %d errors (degraded reads should succeed)", p.Name, a.Arm, a.Errors)
					}
				}
			}
			if len(rep.Deltas) == 0 {
				t.Errorf("report carries no paired deltas")
			}
			if !strings.Contains(rep.Markdown(), "Paired deltas") {
				t.Errorf("markdown summary lacks the delta table")
			}
			if _, err := json.MarshalIndent(rep, "", "  "); err != nil {
				t.Errorf("json: %v", err)
			}
		})
	}
}

// TestDegradedLatencyRaisesBackendMean checks the chaos actually bites:
// the degraded phase must be slower than the normal phase for the
// cache-less backend arm.
func TestDegradedLatencyRaisesBackendMean(t *testing.T) {
	spec, _ := Lookup("degraded-latency")
	rep, err := Run(reduced(spec), reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	normal := armPhase(t, rep, "normal", "Backend")
	degraded := armPhase(t, rep, "degraded", "Backend")
	if degraded.MeanMS <= normal.MeanMS*1.5 {
		t.Fatalf("degraded mean %.0f ms not clearly above normal %.0f ms", degraded.MeanMS, normal.MeanMS)
	}
	recovered := armPhase(t, rep, "recovered", "Backend")
	if recovered.MeanMS >= degraded.MeanMS {
		t.Fatalf("recovery did not lower the mean (%.0f -> %.0f ms)", degraded.MeanMS, recovered.MeanMS)
	}
}

// TestPartitionForcesDetour checks that severing the nearest remote link
// slows the backend arm while reads keep succeeding.
func TestPartitionForcesDetour(t *testing.T) {
	spec, _ := Lookup("partition")
	rep, err := Run(reduced(spec), reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	normal := armPhase(t, rep, "normal", "Backend")
	parted := armPhase(t, rep, "partitioned", "Backend")
	if parted.MeanMS <= normal.MeanMS {
		t.Fatalf("partitioned mean %.0f ms not above normal %.0f ms", parted.MeanMS, normal.MeanMS)
	}
	if parted.Errors > 0 {
		t.Fatalf("partition caused %d hard errors; degraded reads should detour", parted.Errors)
	}
}

// TestRegionFailoverDegradesThenRecovers exercises the region outage.
func TestRegionFailoverDegradesThenRecovers(t *testing.T) {
	spec, _ := Lookup("region-failover")
	rep, err := Run(reduced(spec), reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	normal := armPhase(t, rep, "normal", "Backend")
	outage := armPhase(t, rep, "outage", "Backend")
	if outage.MeanMS <= normal.MeanMS {
		t.Fatalf("outage mean %.0f ms not above normal %.0f ms", outage.MeanMS, normal.MeanMS)
	}
	if outage.Errors > 0 {
		t.Fatalf("outage caused %d hard errors", outage.Errors)
	}
}

// TestCacheCrashCostsHits pairs the cache-crash scenario against the same
// timeline without the crash: losing the cache must cost the LRU arm hits.
func TestCacheCrashCostsHits(t *testing.T) {
	spec, _ := Lookup("cache-crash")
	spec = reduced(spec)
	noCrash := spec
	noCrash.Phases = append([]Phase(nil), spec.Phases...)
	for i := range noCrash.Phases {
		p := noCrash.Phases[i]
		p.Events = nil
		noCrash.Phases[i] = p
	}

	opts := reducedOpts()
	opts.Arms = []experiments.Strategy{{Kind: experiments.StratLRU, C: 3}}
	crashed, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(noCrash, opts)
	if err != nil {
		t.Fatal(err)
	}
	ch := armPhase(t, crashed, "crash", "LRU-3")
	cl := armPhase(t, clean, "crash", "LRU-3")
	if hits, cleanHits := ch.FullHits+ch.PartialHits, cl.FullHits+cl.PartialHits; hits >= cleanHits {
		t.Fatalf("crash phase hits %d not below clean run's %d", hits, cleanHits)
	}
}

// TestRunsAreDeterministic replays baseline twice and expects identical
// measurements.
func TestRunsAreDeterministic(t *testing.T) {
	spec, _ := Lookup("baseline")
	spec = reduced(spec)
	a, err := Run(spec, reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Phases, b.Phases) {
		aj, _ := json.Marshal(a.Phases)
		bj, _ := json.Marshal(b.Phases)
		t.Fatalf("non-deterministic phases:\n%s\nvs\n%s", aj, bj)
	}
}

func TestParseArm(t *testing.T) {
	for name, kind := range map[string]experiments.StrategyKind{
		"agar": experiments.StratAgar, "lru": experiments.StratLRU,
		"lfu": experiments.StratLFU, "fixed": experiments.StratFixed,
		"backend": experiments.StratBackend,
	} {
		s, err := ParseArm(name, 3)
		if err != nil || s.Kind != kind {
			t.Errorf("ParseArm(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ParseArm("nope", 3); err == nil {
		t.Errorf("ParseArm accepted an unknown arm")
	}
}

// armPhase finds one arm's row in one phase of the report.
func armPhase(t *testing.T, rep *Report, phase, arm string) ArmPhase {
	t.Helper()
	for _, p := range rep.Phases {
		if p.Name != phase {
			continue
		}
		for _, a := range p.Arms {
			if a.Arm == arm {
				return a
			}
		}
	}
	t.Fatalf("report has no phase %q arm %q", phase, arm)
	return ArmPhase{}
}

// TestLiveSmoke boots the localhost cluster and replays the baseline
// scenario's opening phase over real sockets.
func TestLiveSmoke(t *testing.T) {
	spec, _ := Lookup("baseline")
	res, err := RunLiveSmoke(spec, LiveOptions{Ops: 60, Objects: 20, DelayScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("live smoke saw %d errors", res.Errors)
	}
	if res.Latency.Count != 60 {
		t.Fatalf("measured %d reads, want 60", res.Latency.Count)
	}
	if res.Phase != "ramp" {
		t.Fatalf("smoke ran phase %q, want the first phase", res.Phase)
	}
}

// TestCoopPeeringServesPeerChunks runs the coop-peering scenario on the
// simulator: the agar arm must serve chunks out of the peered Dublin
// node's cache during the shared-hot phase, and only the agar arm peers.
func TestCoopPeeringServesPeerChunks(t *testing.T) {
	spec, ok := Lookup("coop-peering")
	if !ok {
		t.Fatal("coop-peering missing from the library")
	}
	if len(spec.PeerRegions) == 0 {
		t.Fatal("coop-peering declares no peers")
	}
	rep, err := Run(reduced(spec), reducedOpts())
	if err != nil {
		t.Fatal(err)
	}
	agar := armPhase(t, rep, "shared-hot", "Agar")
	if agar.PeerChunks == 0 {
		t.Fatalf("agar arm served no peer chunks in the shared-hot phase: %+v", agar)
	}
	if agar.Errors > 0 {
		t.Fatalf("peered reads errored %d times", agar.Errors)
	}
	backend := armPhase(t, rep, "shared-hot", "Backend")
	if backend.PeerChunks != 0 {
		t.Fatalf("cache-less backend arm reported %d peer chunks", backend.PeerChunks)
	}
	if agar.MeanMS >= backend.MeanMS {
		t.Fatalf("peered agar mean %.0f ms not below backend %.0f ms", agar.MeanMS, backend.MeanMS)
	}
	if !strings.Contains(rep.Markdown(), "peer chunks") {
		t.Error("peered markdown lacks the peer-chunk column")
	}
}

func TestSpecValidationRejectsBadPeers(t *testing.T) {
	base := Phase{Name: "p", Duration: time.Minute, Workload: Workload{Kind: WorkloadZipfian}}
	for _, tc := range []struct {
		name  string
		peers []string
		reg   string
	}{
		{"unknown peer", []string{"atlantis"}, "frankfurt"},
		{"peer equals client", []string{"frankfurt"}, "frankfurt"},
		{"peer equals default client", []string{"frankfurt"}, ""},
		{"duplicate peer", []string{"dublin", "dublin"}, "frankfurt"},
	} {
		spec := Spec{Name: "x", Region: tc.reg, PeerRegions: tc.peers, Phases: []Phase{base}}
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: spec validated", tc.name)
		}
	}
	good := Spec{Name: "x", Region: "frankfurt", PeerRegions: []string{"dublin", "n-virginia"}, Phases: []Phase{base}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid peered spec rejected: %v", err)
	}
}

// TestLiveSmokePeered boots the two-cluster peered smoke: Frankfurt must
// pull chunks from Dublin's cache server (which accounts them as peer
// hits), and peer-assisted reads must beat reads that crossed the WAN.
func TestLiveSmokePeered(t *testing.T) {
	spec, _ := Lookup("coop-peering")
	res, err := RunLiveSmoke(spec, LiveOptions{Ops: 60, Objects: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("peered smoke saw %d errors", res.Errors)
	}
	if res.PeerRegion != "dublin" {
		t.Fatalf("peer region %q", res.PeerRegion)
	}
	if res.PeerChunks == 0 {
		t.Fatal("no chunks served from the peer cache")
	}
	if res.PeerHits == 0 {
		t.Fatal("peer cache server reported no peer hits")
	}
	if res.PeerReads == nil || res.PeerReads.Count == 0 {
		t.Fatal("no peer-assisted reads summarised")
	}
	if res.WANReads != nil && res.WANReads.Count > 0 && res.PeerReads.MeanMS >= res.WANReads.MeanMS {
		t.Fatalf("peer-assisted reads (%.2f ms) not below WAN reads (%.2f ms)",
			res.PeerReads.MeanMS, res.WANReads.MeanMS)
	}
}

// TestLiveSmokeUnderOutage replays the region-failover scenario's shape
// with the outage pulled into the first phase: reads must detour, not fail.
func TestLiveSmokeUnderOutage(t *testing.T) {
	spec := Spec{
		Name:   "live-outage",
		Region: "sydney",
		Phases: []Phase{{
			Name:     "outage",
			Duration: time.Minute,
			Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
			Events:   []Event{{Kind: EventRegionOutage, Region: "tokyo"}},
		}},
	}
	res, err := RunLiveSmoke(spec, LiveOptions{Ops: 40, Objects: 15, DelayScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("outage smoke saw %d errors; reads should detour around tokyo", res.Errors)
	}
}

package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/agardist/agar/internal/experiments"
)

// A soak sliced into one window per phase is the scenario run of the same
// spec: Run and RunSoak play arms through one loop, so with SampleEvery
// equal to the phase length and OpsPerSample equal to OpCap the soak's
// baseline samples are the Agar arm's phase rows.
func TestSoakWindowsMatchRunPhases(t *testing.T) {
	const phase, opCap = 30 * time.Second, 150
	spec := Spec{
		Name:    "one-loop",
		Objects: 60,
		Phases: []Phase{
			{Name: "zipf", Duration: phase, Workload: Workload{Kind: WorkloadZipfian}},
			{Name: "shift", Duration: phase, Workload: Workload{Kind: WorkloadHotspot, HotLo: 20, HotHi: 40, HotFrac: 0.9}},
			{Name: "uniform", Duration: phase, Workload: Workload{Kind: WorkloadUniform}},
		},
	}
	opts := Options{WarmupOps: 60, Seed: 3}
	agarOnly := opts
	agarOnly.Arms = []experiments.Strategy{{Kind: experiments.StratAgar}}
	agarOnly.OpCap = opCap
	rep, err := Run(spec, agarOnly)
	if err != nil {
		t.Fatal(err)
	}
	soak, err := RunSoak(SoakSpec{Spec: spec, SampleEvery: phase, OpsPerSample: opCap}, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := soak.Arm("baseline")
	if len(base.Samples) != len(rep.Phases) {
		t.Fatalf("soak took %d samples over %d phases", len(base.Samples), len(rep.Phases))
	}
	for i, pr := range rep.Phases {
		got, want := base.Samples[i], pr.Arms[0]
		if got.Phase != pr.Name || got.Ops != want.Ops || got.MeanMS != want.MeanMS {
			t.Errorf("phase %s: soak sample %s ops=%d mean=%v, run row ops=%d mean=%v",
				pr.Name, got.Phase, got.Ops, got.MeanMS, want.Ops, want.MeanMS)
		}
	}
}

// A phase shorter than one operation is overshot whole by the previous
// phase's last operation. Run still reports a row for it on every arm, so
// paired tables keep one row per phase; the soak, which plays the same
// windows, records no sample for a window that measured nothing.
func TestRunKeepsPhaseOvershotByOneOp(t *testing.T) {
	spec := Spec{
		Name:    "overshoot",
		Objects: 60,
		Phases: []Phase{
			{Name: "blink", Duration: time.Microsecond, Workload: Workload{Kind: WorkloadZipfian}},
			{Name: "skipped", Duration: time.Microsecond, Workload: Workload{Kind: WorkloadZipfian}},
			{Name: "steady", Duration: 10 * time.Second, Workload: Workload{Kind: WorkloadZipfian}},
		},
	}
	opts := Options{OpCap: 100, WarmupOps: 60, Seed: 1}
	rep, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != len(spec.Phases) {
		t.Fatalf("report has %d phases, spec %d", len(rep.Phases), len(spec.Phases))
	}
	for _, pr := range rep.Phases {
		if len(pr.Arms) != len(rep.Arms) {
			t.Fatalf("phase %s has %d arm rows, want %d", pr.Name, len(pr.Arms), len(rep.Arms))
		}
	}
	for _, arm := range rep.Arms {
		if got := armPhase(t, rep, "blink", arm).Ops; got != 1 {
			t.Errorf("arm %s blink ran %d ops, want the one that overshoots", arm, got)
		}
		if got := armPhase(t, rep, "skipped", arm).Ops; got != 0 {
			t.Errorf("arm %s skipped phase ran %d ops, want 0", arm, got)
		}
		if got := armPhase(t, rep, "steady", arm).Ops; got == 0 {
			t.Errorf("arm %s steady phase ran no ops", arm)
		}
	}

	soak, err := RunSoak(SoakSpec{Spec: spec, SampleEvery: time.Second, OpsPerSample: 100}, Options{WarmupOps: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range soak.Arms {
		phases := map[string]int{}
		for _, s := range arm.Samples {
			if s.Ops == 0 {
				t.Errorf("soak arm %s recorded an empty sample in phase %s", arm.Arm, s.Phase)
			}
			phases[s.Phase]++
		}
		if phases["blink"] != 1 || phases["skipped"] != 0 || phases["steady"] == 0 {
			t.Errorf("soak arm %s samples per phase = %v, want blink 1, skipped 0, steady > 0", arm.Arm, phases)
		}
	}
}

// The soak plays its arms through the same loop as Run, so a soak over a
// peered spec reads from its peers: the measured region's reads get
// cheaper than on the same soak without peers.
func TestRunSoakHonoursPeers(t *testing.T) {
	spec, ok := Lookup("coop-peering")
	if !ok {
		t.Fatal("coop-peering missing from the library")
	}
	spec = reduced(spec)
	unpeered := spec
	unpeered.PeerRegions = nil
	meanMS := func(spec Spec) float64 {
		t.Helper()
		rep, err := RunSoak(SoakSpec{Spec: spec, SampleEvery: 10 * time.Second, OpsPerSample: 60}, Options{WarmupOps: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sum, ops := 0.0, 0
		for _, s := range rep.Arm("baseline").Samples {
			if s.Phase == "shared-hot" {
				sum += s.MeanMS * float64(s.Ops)
				ops += s.Ops
			}
		}
		if ops == 0 {
			t.Fatal("no reads in the shared-hot phase")
		}
		return sum / float64(ops)
	}
	if peered, alone := meanMS(spec), meanMS(unpeered); peered >= alone {
		t.Fatalf("peered soak mean %.1f ms not below unpeered %.1f ms", peered, alone)
	}
}

// A soak plays one store tier in one coherence mode; a spec asking for a
// tier sweep or paired coherence is refused rather than run on one side.
func TestRunSoakRefusesSweeps(t *testing.T) {
	read := Phase{Name: "read", Duration: time.Minute, Workload: Workload{Kind: WorkloadZipfian}}
	write := Phase{Name: "write", Duration: time.Minute, Workload: Workload{Kind: WorkloadZipfian}, Updates: 0.2}
	for _, spec := range []Spec{
		{Name: "tiers", StoreTiers: []string{"mem", "remote-slow"}, Phases: []Phase{read}},
		{Name: "paired", Coherence: CoherencePaired, Phases: []Phase{write}},
	} {
		_, err := RunSoak(SoakSpec{Spec: spec}, Options{WarmupOps: 60, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "one store tier in one coherence mode") {
			t.Errorf("soak %s: err = %v, want a refusal", spec.Name, err)
		}
	}
	// One tier named explicitly is no sweep.
	one := Spec{Name: "one-tier", Objects: 60, StoreTiers: []string{"mem"},
		Phases: []Phase{{Name: "read", Duration: 10 * time.Second, Workload: Workload{Kind: WorkloadZipfian}}}}
	if _, err := RunSoak(SoakSpec{Spec: one, SampleEvery: 5 * time.Second, OpsPerSample: 20}, Options{WarmupOps: 60, Seed: 1}); err != nil {
		t.Errorf("single-tier soak: %v", err)
	}
}

// A soak plays only the Agar arm and caps each window at OpsPerSample, so
// options that choose arms or an op cap are refused rather than dropped.
func TestRunSoakRefusesIgnoredOptions(t *testing.T) {
	spec := Spec{Name: "opts", Objects: 60, Phases: []Phase{
		{Name: "read", Duration: 5 * time.Second, Workload: Workload{Kind: WorkloadZipfian}},
	}}
	soak := SoakSpec{Spec: spec, SampleEvery: 5 * time.Second, OpsPerSample: 20}
	for name, opts := range map[string]Options{
		"arms":  {Arms: []experiments.Strategy{{Kind: experiments.StratLRU, C: 3}}, Seed: 1},
		"opcap": {OpCap: 200, Seed: 1},
	} {
		if _, err := RunSoak(soak, opts); err == nil || !strings.Contains(err.Error(), "Options.Arms and Options.OpCap are not used") {
			t.Errorf("%s: err = %v, want a refusal", name, err)
		}
	}
	if _, err := RunSoak(soak, Options{Seed: 1}); err != nil {
		t.Errorf("plain options: %v", err)
	}
}

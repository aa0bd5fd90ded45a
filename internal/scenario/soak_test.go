package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The long-soak acceptance contract: over four virtual hours the
// baseline arm stays alert-free with no flagged drift, while the
// brownout arm's alert timeline brackets the injected window — firing
// within two samples of the brownout's start, resolved within two
// samples of its end.
func TestLongSoakAlertTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour virtual soak")
	}
	soak := LongSoak()
	rep, err := RunSoak(soak, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SoakSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, SoakSchema)
	}
	if rep.VirtualMS < 2*3.6e6 {
		t.Fatalf("soak must cover at least two virtual hours, got %.0f ms", rep.VirtualMS)
	}

	base := rep.Arm("baseline")
	brown := rep.Arm("brownout")
	if base == nil || brown == nil {
		t.Fatalf("missing arm: baseline=%v brownout=%v", base != nil, brown != nil)
	}
	if base.FiringCount != 0 {
		t.Errorf("baseline arm fired %d alerts, want 0: %+v", base.FiringCount, base.Alerts)
	}
	if base.DriftFlagged != 0 {
		t.Errorf("baseline arm flagged %d drift findings, want 0: %+v", base.DriftFlagged, base.Drift)
	}
	if len(base.Drift) == 0 {
		t.Error("baseline arm ran no drift checks")
	}

	// The brownout events sit in the midday phase: phase start 1h, At 20m,
	// Duration 20m.
	brownStart := (time.Hour + 20*time.Minute).Seconds() * 1000
	brownEnd := (time.Hour + 40*time.Minute).Seconds() * 1000
	sample := rep.SampleEveryMS
	for _, rule := range []string{"read-p99-ceiling", "read-mean-ceiling", "write-p99-ceiling"} {
		offs := brown.FiringOffsets(rule)
		if len(offs) == 0 {
			t.Errorf("brownout arm never fired %s", rule)
			continue
		}
		if first := offs[0]; first < brownStart || first > brownStart+2*sample {
			t.Errorf("%s first fired at %.0f ms, want within [%0.f, %.0f]",
				rule, first, brownStart, brownStart+2*sample)
		}
		for _, off := range offs {
			if off < brownStart || off > brownEnd+2*sample {
				t.Errorf("%s fired at %.0f ms, outside the brownout window [%.0f, %.0f]",
					rule, off, brownStart, brownEnd+2*sample)
			}
		}
		if !brown.ResolvedAfter(rule) {
			t.Errorf("%s never resolved after the brownout lifted", rule)
		}
	}

	// The midday phase mutates through the versioned write path: both arms
	// must run updates there, record write latency, and — because writes
	// invalidate before they acknowledge — never serve a stale read, even
	// under the brownout. Firing transitions only record state changes, so
	// a stale-read-ceiling firing anywhere is a coherence bug.
	for _, arm := range rep.Arms {
		updates, staleWindows := 0, 0
		for _, s := range arm.Samples {
			updates += s.Updates
			if s.StaleReads > 0 {
				staleWindows++
			}
			if s.Phase == "midday" && s.Updates > 0 && s.WriteP99MS <= 0 {
				t.Errorf("arm %s midday window at %.0f ms ran %d updates with no write latency",
					arm.Arm, s.OffsetMS, s.Updates)
			}
			if s.Phase != "midday" && s.Updates != 0 {
				t.Errorf("arm %s phase %s ran %d updates, want read-only", arm.Arm, s.Phase, s.Updates)
			}
		}
		if updates == 0 {
			t.Errorf("arm %s ran no updates", arm.Arm)
		}
		if staleWindows != 0 {
			t.Errorf("arm %s served stale reads in %d windows", arm.Arm, staleWindows)
		}
		if offs := arm.FiringOffsets("stale-read-ceiling"); len(offs) != 0 {
			t.Errorf("arm %s fired stale-read-ceiling at %v", arm.Arm, offs)
		}
	}

	// Both arms cover the whole timeline with evenly spaced samples.
	for _, arm := range rep.Arms {
		if len(arm.Samples) == 0 {
			t.Fatalf("arm %s has no samples", arm.Arm)
		}
		last := arm.Samples[len(arm.Samples)-1]
		if last.OffsetMS < rep.VirtualMS-sample {
			t.Errorf("arm %s samples end at %.0f ms, want ≥ %.0f", arm.Arm, last.OffsetMS, rep.VirtualMS-sample)
		}
		if arm.TotalOps == 0 {
			t.Errorf("arm %s measured no operations", arm.Arm)
		}
	}

	// The report round-trips as JSON and renders a markdown section with
	// both arms and the alert table.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SoakReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Schema != SoakSchema || len(back.Arms) != 2 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	md := rep.Markdown()
	for _, want := range []string{"## Soak: long-soak", "baseline", "brownout", "read-p99-ceiling", "firing", "Drift"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}

	// The run reproduces the committed BENCH_soak.json exactly (wall-clock
	// elapsed time aside).
	var committed map[string]any
	readGolden(t, "BENCH_soak.json", &committed)
	if !reflect.DeepEqual(golden(t, rep), golden(t, committed)) {
		t.Errorf("soak report differs from BENCH_soak.json; if the change is intended, regenerate with %s", regenerate)
	}
}

// Scaling a soak shrinks every duration together so the CI smoke replays
// the same shape in a fraction of the virtual time.
func TestSoakScale(t *testing.T) {
	s := LongSoak().Scale(0.25)
	if got, want := s.Spec.TotalDuration(), time.Hour; got != want {
		t.Fatalf("scaled total = %v, want %v", got, want)
	}
	if got, want := s.SampleEvery, 15*time.Second; got != want {
		t.Fatalf("scaled sample = %v, want %v", got, want)
	}
	ev := s.Spec.Phases[1].Events
	if len(ev) != 2 || ev[0].At != 5*time.Minute || ev[0].Duration != 5*time.Minute {
		t.Fatalf("scaled events = %+v", ev)
	}
}

package loadgen

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeIssuer resolves every op after a fixed synthetic delay and records
// the issued sequence.
type fakeIssuer struct {
	delay time.Duration
	mu    sync.Mutex
	ops   []Op
	fail  func(Op) error
}

func (f *fakeIssuer) Issue(op Op, done func(error)) {
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.mu.Unlock()
	var err error
	if f.fail != nil {
		err = f.fail(op)
	}
	if f.delay == 0 {
		done(err)
		return
	}
	go func() {
		time.Sleep(f.delay)
		done(err)
	}()
}

func testConfig() Config {
	return Config{
		Rate:     2000,
		Duration: 250 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Seed:     7,
		Mix:      []OpWeight{{Kind: "get", Weight: 70}, {Kind: "mget", Weight: 30}},
		Keys:     64,
	}
}

// TestRunDeterministicSequence: two runs with the same seed issue the
// identical (kind, key) schedule — the property that makes sweeps
// comparable across binaries and runs.
func TestRunDeterministicSequence(t *testing.T) {
	var seqs [2][]Op
	for i := range seqs {
		iss := &fakeIssuer{}
		if _, err := Run(testConfig(), iss); err != nil {
			t.Fatal(err)
		}
		seqs[i] = iss.ops
	}
	if len(seqs[0]) == 0 {
		t.Fatal("no ops issued")
	}
	if len(seqs[0]) != len(seqs[1]) {
		t.Fatalf("op counts differ: %d vs %d", len(seqs[0]), len(seqs[1]))
	}
	for i := range seqs[0] {
		if seqs[0][i] != seqs[1][i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, seqs[0][i], seqs[1][i])
		}
	}
}

// TestRunPointShape checks a run's Point: both mix kinds present, counts
// near rate*duration, monotone quantiles, warmup excluded, errors counted.
func TestRunPointShape(t *testing.T) {
	iss := &fakeIssuer{delay: time.Millisecond, fail: func(op Op) error {
		if op.Kind == "mget" {
			return errors.New("boom")
		}
		return nil
	}}
	cfg := testConfig()
	pt, err := Run(cfg, iss)
	if err != nil {
		t.Fatal(err)
	}
	if pt.OfferedOps != cfg.Rate {
		t.Fatalf("offered = %v", pt.OfferedOps)
	}
	var total int64
	for kind, st := range pt.Ops {
		total += st.Count
		if !(st.P50Us <= st.P99Us && st.P99Us <= st.P999Us && st.P999Us <= st.MaxUs) {
			t.Fatalf("%s quantiles not monotone: %+v", kind, st)
		}
		// Synthetic 1ms floor: measured from scheduled time, every sample
		// must be at least the issuer's delay.
		if st.P50Us < 900 {
			t.Fatalf("%s p50 %vµs below the 1ms synthetic service time", kind, st.P50Us)
		}
		switch kind {
		case "get":
			if st.Errors != 0 {
				t.Fatalf("get errors = %d", st.Errors)
			}
		case "mget":
			if st.Errors != st.Count {
				t.Fatalf("mget errors = %d of %d", st.Errors, st.Count)
			}
		default:
			t.Fatalf("unexpected kind %q", kind)
		}
	}
	want := cfg.Rate * cfg.Duration.Seconds() // measured window only
	if float64(total) < want*0.8 || float64(total) > want*1.2 {
		t.Fatalf("measured %d ops, want about %.0f (warmup must be excluded)", total, want)
	}
	if pt.AchievedOps <= 0 {
		t.Fatalf("achieved = %v", pt.AchievedOps)
	}
}

// TestRunSlowOps: the point retains at most SlowK in-window completions,
// slowest first, each carrying the deterministic trace ID its op was
// issued with — the join key against the servers' /debug/traces.
func TestRunSlowOps(t *testing.T) {
	iss := &fakeIssuer{delay: time.Millisecond}
	pt, err := Run(testConfig(), iss)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.SlowOps) == 0 || len(pt.SlowOps) > SlowK {
		t.Fatalf("SlowOps len = %d, want 1..%d", len(pt.SlowOps), SlowK)
	}
	traces := map[string]bool{}
	for i, s := range pt.SlowOps {
		if s.Kind == "" || s.Key == "" || len(s.Trace) != 16 || s.LatUs <= 0 {
			t.Fatalf("slow op %d malformed: %+v", i, s)
		}
		if i > 0 && s.LatUs > pt.SlowOps[i-1].LatUs {
			t.Fatalf("slow ops not slowest-first: %v after %v", s.LatUs, pt.SlowOps[i-1].LatUs)
		}
		if traces[s.Trace] {
			t.Fatalf("duplicate trace %s", s.Trace)
		}
		traces[s.Trace] = true
	}
	// Each slow op's trace must belong to an op the issuer actually saw.
	issued := map[string]Op{}
	for _, op := range iss.ops {
		issued[op.Trace] = op
	}
	for _, s := range pt.SlowOps {
		op, ok := issued[s.Trace]
		if !ok || op.Kind != s.Kind || op.Key != s.Key {
			t.Fatalf("slow op %+v does not match issued op %+v", s, op)
		}
	}
}

// TestPickTraceDeterministicAndDistinct: trace IDs are a pure function of
// the seed (so reports are reproducible) yet unique across the schedule,
// and drawing them must not perturb the v1 (kind, key) stream — pinned by
// the separate trace rng.
func TestPickTraceDeterministicAndDistinct(t *testing.T) {
	cfg := testConfig()
	a, b := newOpPicker(&cfg), newOpPicker(&cfg)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		opA, opB := a.pick(), b.pick()
		if opA != opB {
			t.Fatalf("pick %d diverged: %+v vs %+v", i, opA, opB)
		}
		if len(opA.Trace) != 16 || seen[opA.Trace] {
			t.Fatalf("pick %d trace %q malformed or repeated", i, opA.Trace)
		}
		seen[opA.Trace] = true
	}
}

// TestRunWaitTimeout: an issuer that never resolves must not hang Run.
func TestRunWaitTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 20 * time.Millisecond
	cfg.Warmup = 0
	cfg.WaitTimeout = 50 * time.Millisecond
	_, err := Run(cfg, issuerFunc(func(Op, func(error)) {}))
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("err = %v, want unresolved timeout", err)
	}
}

type issuerFunc func(Op, func(error))

func (f issuerFunc) Issue(op Op, done func(error)) { f(op, done) }

// TestSweepFreshIssuerPerPoint: each rung gets its own issuer and its
// teardown runs before the next rung starts.
func TestSweepFreshIssuerPerPoint(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 0
	var built, closed atomic.Int32
	pts, err := Sweep(cfg, []float64{500, 1000, 2000}, func() (Issuer, func(), error) {
		if built.Add(1)-1 != closed.Load() {
			t.Error("issuer built before the previous one was torn down")
		}
		return &fakeIssuer{}, func() { closed.Add(1) }, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || built.Load() != 3 || closed.Load() != 3 {
		t.Fatalf("points=%d built=%d closed=%d", len(pts), built.Load(), closed.Load())
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OfferedOps <= pts[i-1].OfferedOps {
			t.Fatalf("points not ascending: %v then %v", pts[i-1].OfferedOps, pts[i].OfferedOps)
		}
	}
}

func mkPoint(offered, achieved, p99 float64) Point {
	return Point{
		OfferedOps: offered, AchievedOps: achieved, DurationS: 1,
		Ops: map[string]KindStats{
			"get":  {Count: int64(achieved * 0.7), MeanUs: p99 / 2, P50Us: p99 / 2, P90Us: p99 * 0.8, P99Us: p99, P999Us: p99 * 2, MaxUs: p99 * 3},
			"mget": {Count: int64(achieved * 0.3), MeanUs: p99, P50Us: p99, P90Us: p99 * 1.5, P99Us: p99 * 2, P999Us: p99 * 3, MaxUs: p99 * 4},
		},
	}
}

// TestComputeKnee: the knee is the last ascending point holding >= 95%
// efficiency, with the dominant op's p99 attached.
func TestComputeKnee(t *testing.T) {
	r := &Report{Schema: Schema, Points: []Point{
		mkPoint(1000, 998, 200),
		mkPoint(2000, 1990, 300),
		mkPoint(4000, 3950, 800),
		mkPoint(8000, 5200, 9000), // 65% — past the knee
	}}
	r.ComputeKnee()
	if r.Knee == nil || r.Knee.OfferedOps != 4000 {
		t.Fatalf("knee = %+v, want offered 4000", r.Knee)
	}
	if r.Knee.DominantOp != "get" || r.Knee.P99Us != 800 {
		t.Fatalf("knee dominant = %+v", r.Knee)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}

	// No point keeps up: the ceiling (highest achieved) stands in.
	r2 := &Report{Schema: Schema, Points: []Point{
		mkPoint(4000, 3000, 500),
		mkPoint(8000, 3600, 900),
	}}
	r2.ComputeKnee()
	if r2.Knee == nil || r2.Knee.OfferedOps != 8000 {
		t.Fatalf("ceiling knee = %+v", r2.Knee)
	}
}

// TestReportValidate rejects the failure shapes CI must catch: wrong
// schema, empty sweep, non-monotone quantiles, phantom knee, and accepts
// a round-tripped good report.
func TestReportValidate(t *testing.T) {
	good := &Report{Schema: Schema, Points: []Point{mkPoint(1000, 990, 250)}}
	good.ComputeKnee()
	blob, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}

	cases := map[string]func(*Report){
		"schema":   func(r *Report) { r.Schema = "agar-load/v0" },
		"empty":    func(r *Report) { r.Points = nil },
		"offered":  func(r *Report) { r.Points[0].OfferedOps = 0 },
		"noops":    func(r *Report) { r.Points[0].Ops = nil },
		"quantile": func(r *Report) { s := r.Points[0].Ops["get"]; s.P99Us = s.P50Us - 1; r.Points[0].Ops["get"] = s },
		"errors":   func(r *Report) { s := r.Points[0].Ops["get"]; s.Errors = s.Count + 1; r.Points[0].Ops["get"] = s },
		"knee":     func(r *Report) { r.Knee = &Knee{OfferedOps: 31337} },
		"slow": func(r *Report) {
			r.Points[0].SlowOps = []SlowOp{{Kind: "get", LatUs: 1}, {Kind: "get", LatUs: 2}}
		},
	}
	for name, mutate := range cases {
		r := &Report{}
		if err := json.Unmarshal(blob, r); err != nil {
			t.Fatal(err)
		}
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: mutation passed validation", name)
		}
	}
}

// TestMarkdownSection: the rendered table carries every rate and kind plus
// the knee line.
func TestMarkdownSection(t *testing.T) {
	r := &Report{Schema: Schema, Points: []Point{mkPoint(2000, 1990, 300), mkPoint(1000, 998, 200)}}
	r.ComputeKnee()
	md := r.MarkdownSection()
	for _, want := range []string{"| 1000 |", "| 2000 |", "| get |", "| mget |", "Saturation knee"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	// Ascending rate order regardless of input order.
	if strings.Index(md, "| 1000 |") > strings.Index(md, "| 2000 |") {
		t.Error("points not sorted by offered rate")
	}
}

// TestParseMixAndRates covers the flag grammars.
func TestParseMixAndRates(t *testing.T) {
	mix, err := ParseMix(" get=70, mget=30 ")
	if err != nil || len(mix) != 2 || mix[0].Kind != "get" || mix[1].Weight != 30 {
		t.Fatalf("mix = %+v, err = %v", mix, err)
	}
	for _, bad := range []string{"", "get", "get=0", "get=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	rates, err := ParseRates("2000,500, 1000")
	if err != nil || len(rates) != 3 || rates[0] != 500 || rates[2] != 2000 {
		t.Fatalf("rates = %v, err = %v", rates, err)
	}
	for _, bad := range []string{"", "0", "x", "-5"} {
		if _, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) accepted", bad)
		}
	}
}

// TestZipfSkew: with a strong skew the most popular key must dominate.
func TestZipfSkew(t *testing.T) {
	cfg := testConfig()
	cfg.Skew = 1.5
	p := newOpPicker(&cfg)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[p.pick().Key]++
	}
	if counts["obj-0"] < counts["obj-63"] {
		t.Fatalf("zipf head obj-0=%d not ahead of tail obj-63=%d", counts["obj-0"], counts["obj-63"])
	}
}

// TestConfigValidate rejects the bad shapes.
func TestConfigValidate(t *testing.T) {
	mutations := map[string]func(*Config){
		"rate":     func(c *Config) { c.Rate = 0 },
		"duration": func(c *Config) { c.Duration = 0 },
		"mix":      func(c *Config) { c.Mix = nil },
		"weight":   func(c *Config) { c.Mix = []OpWeight{{Kind: "get", Weight: -1}} },
		"keys":     func(c *Config) { c.Keys = 0 },
	}
	for name, mutate := range mutations {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := Run(cfg, &fakeIssuer{}); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
}

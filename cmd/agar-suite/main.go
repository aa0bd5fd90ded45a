// Command agar-suite runs the chaos and benchmark scenario library on the
// in-process simulator, comparing cache-policy arms phase by phase, and
// writes machine-readable plus human-readable reports.
//
// Usage:
//
//	agar-suite -list
//	agar-suite -scenario baseline
//	agar-suite -scenario all -out results/
//	agar-suite -scenario partition -arms agar,lru,backend -seed 7
//	agar-suite -scenario baseline -scale 0.2 -opcap 500   # quick smoke
//	agar-suite -scenario baseline -live                   # + localhost cluster smoke
//	agar-suite -dumpspec baseline > my.json               # spec file template
//	agar-suite -spec my.json,other.json                   # run custom spec files
//	agar-suite -soak                                      # 4h virtual long-soak
//	agar-suite -soak -soakscale 0.05                      # CI soak smoke
//	agar-suite -soakcheck BENCH_soak.json                 # validate a soak report
//
// Outputs (under -out, default "."):
//
//	BENCH_scenario.json — every scenario's per-phase/per-arm metrics
//	BENCH_soak.json     — the long-soak's samples, alert timeline, drift
//	SCENARIOS.md        — markdown summary with paired deltas
//
// -soak runs only the long-soak unless -scenario/-spec are given too; its
// markdown lands in a marker-fenced SCENARIOS.md section that full suite
// runs carry forward. -soakcheck re-reads a BENCH_soak.json and fails
// (exit 1) unless the baseline arm is alert- and drift-free and the
// brownout arm's alerts fired and resolved — the CI gate for the soak.
//
// The exit code is 0 on success, 1 when any scenario fails to run, and 2
// on invalid usage — so CI can gate on a smoke scenario.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/agardist/agar/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list built-in scenarios and exit")
		name     = flag.String("scenario", "all", "scenario to run (see -list), or 'all'")
		specFile = flag.String("spec", "", "comma-separated JSON scenario spec files to run (see -dumpspec)")
		dump     = flag.String("dumpspec", "", "print a built-in scenario as a JSON spec file and exit")
		out      = flag.String("out", ".", "directory for BENCH_scenario.json and SCENARIOS.md")
		seed     = flag.Int64("seed", 1, "deterministic seed (shared by every arm)")
		opCap    = flag.Int("opcap", 5000, "safety cap on measured operations per phase")
		warmup   = flag.Int("warmup", 300, "warm-up operations before measurement (0 disables)")
		armsFlag = flag.String("arms", "", "comma-separated arms: agar,lru,lfu,fixed,backend (default agar,lru,lfu,backend)")
		chunks   = flag.Int("c", 3, "fixed chunks-per-object for the lru/lfu/fixed arms")
		scale    = flag.Float64("scale", 1, "time-scale factor applied to every phase (0 < scale <= 1)")
		coh      = flag.String("coherence", "", "override mutating scenarios' coherence mode: versioned|none|paired")
		objects  = flag.Int("objects", 0, "override the working-set size (0 = scenario default)")
		live     = flag.Bool("live", false, "additionally smoke each scenario's first phase on the localhost cluster")
		liveOps  = flag.Int("liveops", 120, "measured reads per live phase")
		trace    = flag.Int("trace", 3, "slowest read traces dumped per live phase (0 disables)")
		quiet    = flag.Bool("q", false, "suppress per-scenario markdown on stdout")

		soak      = flag.Bool("soak", false, "run the long-soak (BENCH_soak.json + SCENARIOS.md soak section)")
		soakScale = flag.Float64("soakscale", 1, "time-scale factor for the soak (0 < soakscale <= 1)")
		soakCheck = flag.String("soakcheck", "", "validate an existing BENCH_soak.json and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.Library() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return 0
	}
	if *dump != "" {
		s, ok := scenario.Lookup(*dump)
		if !ok {
			fmt.Fprintf(os.Stderr, "agar-suite: unknown scenario %q; -list shows the library\n", *dump)
			return 2
		}
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "agar-suite: -scale %v outside (0, 1]\n", *scale)
		return 2
	}
	if *soakScale <= 0 || *soakScale > 1 {
		fmt.Fprintf(os.Stderr, "agar-suite: -soakscale %v outside (0, 1]\n", *soakScale)
		return 2
	}
	if *soakCheck != "" {
		return checkSoak(*soakCheck)
	}

	// Spec files run alongside an explicit -scenario selection; with -spec
	// alone, only the files run.
	scenarioSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scenario" {
			scenarioSet = true
		}
	})
	var specs []scenario.Spec
	if *specFile != "" {
		for _, p := range strings.Split(*specFile, ",") {
			s, err := scenario.LoadSpecFile(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
				return 2
			}
			specs = append(specs, s)
		}
	}
	// -soak alone runs only the soak; an explicit -scenario adds the
	// library back alongside it.
	if (*specFile == "" && !*soak) || scenarioSet {
		if *name == "all" {
			specs = append(specs, scenario.Library()...)
		} else {
			for _, n := range strings.Split(*name, ",") {
				s, ok := scenario.Lookup(strings.TrimSpace(n))
				if !ok {
					fmt.Fprintf(os.Stderr, "agar-suite: unknown scenario %q; -list shows the library\n", n)
					return 2
				}
				specs = append(specs, s)
			}
		}
	}

	opts := scenario.Options{OpCap: *opCap, WarmupOps: *warmup, Seed: *seed}
	if *warmup == 0 {
		opts.WarmupOps = -1 // flag 0 means "no warm-up", not "use the default"
	}
	if *armsFlag != "" {
		for _, a := range strings.Split(*armsFlag, ",") {
			strat, err := scenario.ParseArm(strings.TrimSpace(a), *chunks)
			if err != nil {
				fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
				return 2
			}
			opts.Arms = append(opts.Arms, strat)
		}
	} else if *chunks != 3 {
		opts.Arms = scenario.DefaultArms(*chunks)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
		return 1
	}

	suite := suiteReport{
		Schema:    "agar/scenario-suite/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Seed:      *seed,
	}
	var md strings.Builder
	md.WriteString("# Agar scenario suite\n")
	fmt.Fprintf(&md, "\ngenerated %s · seed %d · scale %g\n", suite.Generated, *seed, *scale)

	switch *coh {
	case "", scenario.CoherenceVersioned, scenario.CoherenceNone, scenario.CoherencePaired:
	default:
		fmt.Fprintf(os.Stderr, "agar-suite: -coherence %q (want versioned|none|paired)\n", *coh)
		return 2
	}

	failed := 0
	for _, spec := range specs {
		if *objects > 0 {
			spec.Objects = *objects
		}
		// The coherence override only applies to scenarios that mutate —
		// a read-only spec with a coherence mode would fail validation.
		if *coh != "" {
			for _, p := range spec.Phases {
				if p.Updates > 0 || p.RMW > 0 {
					spec.Coherence = *coh
					break
				}
			}
		}
		runSpec := spec
		if *scale != 1 {
			runSpec = spec.Scale(*scale)
		}
		start := time.Now()
		rep, err := scenario.Run(runSpec, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: scenario %s: %v\n", spec.Name, err)
			failed++
			continue
		}
		suite.Scenarios = append(suite.Scenarios, rep)
		repMD := rep.Markdown()
		md.WriteString("\n" + repMD)
		if !*quiet {
			fmt.Println(repMD)
		}
		fmt.Fprintf(os.Stderr, "agar-suite: %s done in %v\n", spec.Name, time.Since(start).Round(time.Millisecond))

		if *live {
			traces := *trace
			if traces == 0 {
				traces = -1 // flag 0 means "no traces", not "use the default"
			}
			lr, err := scenario.RunLiveSmoke(runSpec, scenario.LiveOptions{Seed: *seed, Ops: *liveOps, Traces: traces})
			if err != nil {
				fmt.Fprintf(os.Stderr, "agar-suite: scenario %s live smoke: %v\n", spec.Name, err)
				failed++
				continue
			}
			suite.LiveSmokes = append(suite.LiveSmokes, lr)
			fmt.Fprintf(&md, "\nLive smoke (`%s`, phase %s): %d reads, mean %.1f ms, p95 %.1f ms, %d cache chunk hits, %d errors\n",
				lr.Scenario, lr.Phase, lr.Latency.Count, lr.Latency.MeanMS, lr.Latency.P95MS, lr.CacheChunks, lr.Errors)
			if lr.PeerRegion != "" {
				fmt.Fprintf(&md, "\nCoop mesh (peer `%s`): %d peer chunks, peer server %d hits / %d misses, digest age %d ms",
					lr.PeerRegion, lr.PeerChunks, lr.PeerHits, lr.PeerMisses, lr.DigestAgeMS)
				if lr.PeerReads != nil && lr.PeerReads.Count > 0 && lr.WANReads != nil && lr.WANReads.Count > 0 {
					fmt.Fprintf(&md, "; peer-assisted reads mean %.1f ms vs WAN reads %.1f ms",
						lr.PeerReads.MeanMS, lr.WANReads.MeanMS)
				}
				md.WriteString("\n")
			}
			md.WriteString(lr.MetricsMarkdown())
			if lr.Errors > 0 {
				failed++
			}
		}
	}

	if len(suite.Scenarios) > 0 {
		data, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: encode: %v\n", err)
			return 1
		}
		jsonPath := filepath.Join(*out, "BENCH_scenario.json")
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
			return 1
		}
		mdPath := filepath.Join(*out, "SCENARIOS.md")
		// agar-bench -load and agar-suite -soak maintain marker-fenced
		// sections in the same file, and the solver-gap line is published
		// in a third; carry them forward verbatim so a suite rerun never
		// erases the latest load curve, soak timeline or gap.
		if old, err := os.ReadFile(mdPath); err == nil {
			for _, m := range [][2]string{
				{scenario.LoadSectionBegin, scenario.LoadSectionEnd},
				{scenario.SoakSectionBegin, scenario.SoakSectionEnd},
				{scenario.SolverGapSectionBegin, scenario.SolverGapSectionEnd},
			} {
				if block, ok := scenario.ExtractMarked(string(old), m[0], m[1]); ok {
					md.WriteString("\n" + block + "\n")
				}
			}
		}
		if err := os.WriteFile(mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "agar-suite: wrote %s and %s\n", jsonPath, mdPath)
	}

	// The soak runs after the suite rewrite so its splice lands in the
	// fresh SCENARIOS.md rather than being overwritten by it.
	if *soak {
		s := scenario.LongSoak()
		if *soakScale != 1 {
			s = s.Scale(*soakScale)
		}
		start := time.Now()
		rep, err := scenario.RunSoak(s, scenario.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: soak: %v\n", err)
			return 1
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: encode soak: %v\n", err)
			return 1
		}
		soakPath := filepath.Join(*out, "BENCH_soak.json")
		if err := os.WriteFile(soakPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
			return 1
		}
		mdPath := filepath.Join(*out, "SCENARIOS.md")
		doc := ""
		if old, err := os.ReadFile(mdPath); err == nil {
			doc = string(old)
		}
		doc = scenario.SpliceMarked(doc, scenario.SoakSectionBegin, scenario.SoakSectionEnd, rep.Markdown())
		if err := os.WriteFile(mdPath, []byte(doc), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "agar-suite: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Println(rep.Markdown())
		}
		fmt.Fprintf(os.Stderr, "agar-suite: soak done in %v, wrote %s (section spliced into %s)\n",
			time.Since(start).Round(time.Millisecond), soakPath, mdPath)
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "agar-suite: %d scenario(s) failed\n", failed)
		return 1
	}
	return 0
}

// checkSoak validates a BENCH_soak.json: schema, both arms present with
// samples, the baseline arm alert- and drift-free, and every brownout
// alert resolved by the end of the timeline. Exit 0 when clean, 1 with
// one line per problem otherwise.
func checkSoak(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agar-suite: soakcheck: %v\n", err)
		return 1
	}
	var rep scenario.SoakReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "agar-suite: soakcheck %s: %v\n", path, err)
		return 1
	}
	var problems []string
	if rep.Schema != scenario.SoakSchema {
		problems = append(problems, fmt.Sprintf("schema %q, want %q", rep.Schema, scenario.SoakSchema))
	}
	base, brown := rep.Arm("baseline"), rep.Arm("brownout")
	if base == nil {
		problems = append(problems, "missing baseline arm")
	}
	if brown == nil {
		problems = append(problems, "missing brownout arm")
	}
	if base != nil && brown != nil {
		for _, arm := range []*scenario.SoakArmReport{base, brown} {
			if len(arm.Samples) == 0 || arm.TotalOps == 0 {
				problems = append(problems, fmt.Sprintf("arm %s has no measurements", arm.Arm))
			}
		}
		if base.FiringCount != 0 {
			problems = append(problems, fmt.Sprintf("baseline arm fired %d alerts, want 0", base.FiringCount))
		}
		if base.DriftFlagged != 0 {
			problems = append(problems, fmt.Sprintf("baseline arm flagged %d drift findings, want 0", base.DriftFlagged))
		}
		for _, r := range rep.Rules {
			if len(brown.FiringOffsets(r.Name)) > 0 && !brown.ResolvedAfter(r.Name) {
				problems = append(problems, fmt.Sprintf("brownout rule %s stuck firing at the end of the timeline", r.Name))
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "agar-suite: soakcheck %s: %s\n", path, p)
		}
		return 1
	}
	firing := 0
	if brown != nil {
		firing = brown.FiringCount
	}
	fmt.Printf("soakcheck %s: ok (%.1f virtual hours, baseline clean, brownout fired %d and resolved)\n",
		path, rep.VirtualMS/3.6e6, firing)
	return 0
}

// suiteReport is the top-level BENCH_scenario.json document.
type suiteReport struct {
	Schema     string                 `json:"schema"`
	Generated  string                 `json:"generated"`
	Seed       int64                  `json:"seed"`
	Scenarios  []*scenario.Report     `json:"scenarios"`
	LiveSmokes []*scenario.LiveResult `json:"live_smokes,omitempty"`
}

// Command agar-bench regenerates the paper's evaluation tables and figures
// against the simulated wide-area deployment. With -probe it instead sends
// a handful of traced ops at a running cache server. Load against a live
// cluster is measured by the benchmark module (benchmark/README.md).
//
// Usage:
//
//	agar-bench -exp all
//	agar-bench -exp fig6 -region sydney -runs 5 -ops 1000
//	agar-bench -exp fig8a -seed 7
//	agar-bench -probe 127.0.0.1:7101
//
// Experiments: table1, fig2, fig6, fig7, fig8a, fig8b, fig9, fig10, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/experiments"
	"github.com/agardist/agar/internal/geo"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig2|fig6|fig7|fig8a|fig8b|fig9|fig10|all")
		region  = flag.String("region", "", "client region for fig6/fig7 (default: frankfurt and sydney)")
		runs    = flag.Int("runs", 5, "runs to average per configuration")
		ops     = flag.Int("ops", 1000, "measured operations per run")
		warmup  = flag.Int("warmup", 1000, "warm-up operations per run")
		objects = flag.Int("objects", 300, "objects in the working set")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		skew    = flag.Float64("skew", 1.1, "default Zipfian skew")
		solver  = flag.String("solver", "populate", "agar solver: populate|exact|greedy")
		probe   = flag.String("probe", "", "send a handful of traced ops at a running cache server (host:port), then exit — CI's tracing smoke client")
	)
	flag.Parse()

	if *probe != "" {
		runProbe(*probe)
		return
	}

	params := experiments.DefaultParams()
	params.Runs = *runs
	params.Operations = *ops
	params.WarmupOps = *warmup
	params.NumObjects = *objects
	params.Seed = *seed
	params.ZipfSkew = *skew
	switch *solver {
	case "populate":
		params.Solver = core.SolverPopulate
	case "exact":
		params.Solver = core.SolverExact
	case "greedy":
		params.Solver = core.SolverGreedy
	default:
		fatalf("unknown solver %q", *solver)
	}

	regions := []geo.RegionID{geo.Frankfurt, geo.Sydney}
	if *region != "" {
		r, err := geo.ParseRegion(*region)
		if err != nil {
			fatalf("%v", err)
		}
		regions = []geo.RegionID{r}
	}

	start := time.Now()
	d, err := experiments.NewDeployment(params)
	if err != nil {
		fatalf("deployment: %v", err)
	}

	want := strings.Split(*exp, ",")
	has := func(name string) bool {
		for _, w := range want {
			if w == name || w == "all" {
				return true
			}
		}
		return false
	}

	if has("table1") {
		fmt.Println(experiments.TableI().Render())
	}
	if has("fig2") {
		res, err := experiments.Figure2(d)
		if err != nil {
			fatalf("fig2: %v", err)
		}
		fmt.Println(res.Render())
	}
	if has("fig6") || has("fig7") {
		for _, r := range regions {
			res, err := experiments.PolicyComparison(d, r)
			if err != nil {
				fatalf("fig6/7: %v", err)
			}
			if has("fig6") {
				fmt.Println(res.RenderFigure6())
			}
			if has("fig7") {
				fmt.Println(res.RenderFigure7())
			}
		}
	}
	if has("fig8a") {
		res, err := experiments.Figure8a(d)
		if err != nil {
			fatalf("fig8a: %v", err)
		}
		fmt.Println(res.Render())
	}
	if has("fig8b") {
		res, err := experiments.Figure8b(d)
		if err != nil {
			fatalf("fig8b: %v", err)
		}
		fmt.Println(res.Render())
	}
	if has("fig9") {
		fmt.Println(experiments.Figure9(d).Render())
	}
	if has("fig10") {
		res, err := experiments.Figure10(d)
		if err != nil {
			fatalf("fig10: %v", err)
		}
		fmt.Println(res.Render())
	}
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "agar-bench: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the reports of one -out file, grouped by workload.
type runSet map[string][]report

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set[rep.Workload] = append(set[rep.Workload], rep)
	}
	return set, sc.Err()
}

// series collects one metric's values over a workload's reports.
func series(reps []report, metric string) (vals []float64) {
	for _, rep := range reps {
		if v, ok := rep.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func failedShare(reps []report) float64 {
	attempted, failed := 0, 0
	for _, rep := range reps {
		attempted, failed = attempted+rep.Attempted, failed+rep.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// spread is the distance between the quartiles as a share of the median,
// the contract's measure of run-to-run variation.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles prints one row per workload and metric — both medians, the
// ratio with its base, the bound and a verdict — and reports whether b is
// worse than a anywhere: a median beyond its bound, or a higher share of
// failed operations. A metric whose own spread exceeds its bound is
// unresolved: the runs cannot tell a regression of that size from noise.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base a = %s, b = %s; ratio = b/a of the medians\n", pathA, pathB)
	fmt.Fprintf(w, "%-12s %-40s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "ratio", "bound", "a sprd", "b sprd", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range list {
				va, vb := series(ra, m.Name), series(rb, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				ratio := 0.0
				if ma != 0 {
					ratio = mb / ma
				}
				sa, sb := spread(va), spread(vb)
				verdict := "-" // per-layer metrics carry no bound
				if m.Bound > 0 {
					change := ratio - 1 // worsening as a share of a's median
					if m.Better == "higher" {
						change = -change
					}
					switch {
					case change > m.Bound:
						verdict, worse = "worse", true
					case sa > m.Bound || sb > m.Bound:
						verdict = "unresolved"
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(w, "%-12s %-40s %14.4f %14.4f %8.4f %7.2f %8.4f %8.4f  %s\n",
					wl.Name, m.Name+" ("+m.Unit+")", ma, mb, ratio, m.Bound, sa, sb, verdict)
			}
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-12s %-40s %14.6f %14.6f %8s %7s %8s %8s  %s\n", wl.Name, "failed share", fa, fb, "", "", "", "", verdict)
	}
	return worse, nil
}

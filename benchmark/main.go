// Command benchmark measures whole-object reads and writes through a live
// Agar deployment, end to end and layer by layer.
//
// It boots an in-process live.StartCluster (six regions, RS(9,3), client
// region Frankfurt, loopback TCP), loads seeded self-describing objects,
// and drives NetworkReader.ReadSession / NetworkWriter.WriteSession from
// nproc lanes with its own seeded Zipf op stream, open-loop scheduler and
// percentile code. One invocation runs one workload:
//
//	benchmark -workload read-large -seed 1 -seconds 20 -trace 0
//
// sets the system up, warms it, measures an open-loop window (latency from
// each operation's due time) and a closed-loop segment (capacity), checks
// every payload against the oracle, and prints the end-to-end metrics.
// With -trace 1 it instead records spans around every operation and every
// layer-probe call and prints the per-layer budget. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// -smoke runs every workload briefly in both passes; -compare a b judges
// two sets of runs written with -out. See README.md for the workloads, the
// metric definitions and how the layers are expected to interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// smokeSeconds gives every window of a smoke run about one second.
const smokeSeconds = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: read-large, read-small, write-heavy or wan-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same keys, op stream and payloads")
		secs    = flag.Float64("seconds", 20, "measured seconds, split between the pass's windows")
		traced  = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", "", "append the full report as one JSON line to this file")
		rows    = flag.String("rows", "", "directory to dump raw per-op rows into")
		spans   = flag.String("spans", "", "with -trace 1: file to write the recorded spans to, one JSON object per line")
		smoke   = flag.Bool("smoke", false, "run every workload in both passes with one-second windows")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, errors.New("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(2, err)
		}
		if worse {
			os.Exit(1)
		}
	case *smoke:
		if err := runSmoke(os.Stdout, *seed); err != nil {
			fail(1, err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fail(2, fmt.Errorf("unknown workload %q", *name))
		}
		if *secs < 1 {
			fail(2, errors.New("-seconds must be at least 1"))
		}
		o := options{seed: *seed, seconds: *secs, traced: *traced != 0, setUps: setUps, rowsDir: *rows, spansOut: *spans}
		if o.traced {
			o.setUps = 1 // setup_s is an end-to-end metric; the traced pass only needs a rig
		}
		rep, err := runWorkload(w, o)
		if err != nil {
			fail(1, err)
		}
		if err := emit(os.Stdout, rep, *out); err != nil {
			fail(1, err)
		}
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

// emit prints the human-readable report, appends it to the -out file, and
// ends with the one-line result the driver reads: the pass's catalogued
// metrics and nothing else.
func emit(w io.Writer, rep *report, outPath string) error {
	pass := endToEnd
	if rep.Traced {
		pass = perLayer
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, make(map[string]value, len(pass))}
	for _, m := range pass {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		final.Metrics[m.Name] = value{Value: v.Value, Unit: v.Unit}
	}

	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %t | %s GOMAXPROCS %d nproc %d lanes %d | %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.Lanes, rep.Env.Transport)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	for _, note := range rep.Notes {
		fmt.Fprintln(w, "  note:", note)
	}
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d valid %t\n", rep.Attempted, rep.Failed, rep.Valid)

	if outPath != "" {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runSmoke runs every workload through both passes with short windows and
// one set-up each, failing on any failed operation or unmeasured metric.
// Cluster.Close inside runWorkload panics on a leaked pooled buffer.
func runSmoke(w io.Writer, seed uint64) error {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(wl, options{seed: seed, seconds: smokeSeconds, traced: traced, setUps: 1})
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			if err := emit(w, rep, ""); err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			if rep.Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", wl.Name, rep.Failed, rep.Attempted)
			}
		}
	}
	return nil
}

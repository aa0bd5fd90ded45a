package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark has to agree with.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatches keeps BENCHMARK.json and the program's own tables the
// same: workloads with their reasons, metrics with units, directions and
// bounds.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	for _, pair := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", pair.kind, len(pair.got), len(pair.want))
			continue
		}
		for i := range pair.want {
			if pair.got[i] != pair.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", pair.kind, i, pair.got[i], pair.want[i])
			}
		}
	}
}

// TestSmoke runs every workload through both passes with one-second
// windows: every catalogued metric must be emitted with its unit, no
// operation may fail, and closing each cluster must not trip the servers'
// buffer-pool leak check (it panics).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight clusters; skipped with -short")
	}
	if raceEnabled {
		// Reed-Solomon coding runs ~100 times slower under the race detector:
		// a 1 MiB read takes seconds and nothing starts within its window.
		// TestSchedulerConcurrentClaims covers the harness's shared state.
		t.Skip("object sizes are out of reach under the race detector")
	}
	var out bytes.Buffer
	if err := runSmoke(&out, 1); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	type result struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	var results []result
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line does not parse: %v\n%s", err, line)
		}
		results = append(results, r)
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d", len(results), 2*len(workloads))
	}
	for i, r := range results {
		w, pass := workloads[i/2], endToEnd
		if i%2 == 1 {
			pass = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(pass) {
			t.Errorf("%s: %d metrics emitted, want %d", w.Name, len(r.Metrics), len(pass))
		}
		for _, m := range pass {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s emitted as %+v (present=%t), want unit %q", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// regenerate is the command that rewrites both committed artifacts.
const regenerate = "go run ./cmd/agar-suite -scenario all -live -soak -q -out ."

// golden decodes v's JSON form into generic values with the wall-clock
// elapsed_ms field dropped, so a fresh report compares by value with one
// decoded from a committed artifact.
func golden(t *testing.T, v any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	return m
}

// readGolden decodes a committed artifact from the repository root.
func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestSuiteMatchesCommittedArtifact pins BENCH_scenario.json: every library
// scenario, run with agar-suite's defaults, reproduces its committed report
// exactly (wall-clock elapsed time aside).
func TestSuiteMatchesCommittedArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario library")
	}
	var committed struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	readGolden(t, "BENCH_scenario.json", &committed)
	lib := Library()
	if len(committed.Scenarios) != len(lib) {
		t.Fatalf("BENCH_scenario.json holds %d scenarios, the library %d; regenerate with %s",
			len(committed.Scenarios), len(lib), regenerate)
	}
	for i, spec := range lib {
		rep, err := Run(spec, Options{OpCap: 5000, WarmupOps: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := golden(t, rep), golden(t, committed.Scenarios[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("scenario %s differs from BENCH_scenario.json; if the change is intended, regenerate with %s",
				spec.Name, regenerate)
		}
	}
}

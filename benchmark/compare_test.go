package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSet writes one -out file: a report per value of read_p50_us, every
// other end-to-end metric held at 1.
func writeSet(t *testing.T, name string, failed int, p50 ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var buf bytes.Buffer
	for _, v := range p50 {
		rep := report{Workload: "read-small", Attempted: 1000, Failed: failed, Metrics: map[string]value{}}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = value{Value: 1, Unit: m.Unit}
		}
		rep.Metrics["read_p50_us"] = value{Value: v, Unit: "us"}
		line, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func verdictOf(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, metric) {
			f := strings.Fields(line)
			return f[len(f)-1]
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, out)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	base := writeSet(t, "a.jsonl", 0, 100, 101, 99, 100, 102)
	cases := []struct {
		name      string
		b         string
		verdict   string
		wantWorse bool
	}{
		{"same", writeSet(t, "b.jsonl", 0, 101, 100, 99, 102, 100), "ok", false},
		{"faster", writeSet(t, "b.jsonl", 0, 50, 51, 49, 50, 52), "ok", false},
		{"slower than the bound", writeSet(t, "b.jsonl", 0, 130, 131, 129, 130, 132), "worse", true},
		{"too noisy to tell", writeSet(t, "b.jsonl", 0, 60, 100, 140, 80, 120), "unresolved", false},
		{"more failures", writeSet(t, "b.jsonl", 3, 100, 101, 99, 100, 102), "ok", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := verdictOf(t, out.String(), "read_p50_us"); got != c.verdict || worse != c.wantWorse {
			t.Errorf("%s: verdict %q worse=%t, want %q worse=%t\n%s", c.name, got, worse, c.verdict, c.wantWorse, out.String())
		}
	}
}

// A higher-is-better metric is worse when it falls.
func TestCompareHigherIsBetter(t *testing.T) {
	a := writeSet(t, "a.jsonl", 0, 100)
	b := writeSet(t, "b.jsonl", 0, 100)
	patch := func(path string, peak float64) {
		data, _ := os.ReadFile(path)
		var rep report
		if err := json.Unmarshal(bytes.TrimSpace(data), &rep); err != nil {
			t.Fatal(err)
		}
		rep.Metrics["peak_ops_s"] = value{Value: peak, Unit: "ops/s"}
		line, _ := json.Marshal(rep)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	patch(a, 1000)
	patch(b, 700)
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, out.String(), "peak_ops_s"); got != "worse" || !worse {
		t.Errorf("peak_ops_s fell 30 %%: verdict %q worse=%t\n%s", got, worse, out.String())
	}
}

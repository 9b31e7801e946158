package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSelf runs every workload, untraced and traced, at tiny scale (scale-6
// analogs, one request round) and checks the printed result against
// BENCHMARK.json and layers.json: every metric present with its unit, no
// failed or incorrect operation, error_rate 0, and each per-layer metric
// zero on its zero_on workloads, where the program's counters must show the
// layer did no work, and on its unmeasured_on workloads, where the
// benchmark does not measure it.
func TestSelf(t *testing.T) {
	specPath := filepath.Join("..", "BENCHMARK.json")
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	readJSON(t, specPath, &spec)
	var notes struct {
		Metrics map[string]struct {
			Moves        string   `json:"moves"`
			On           string   `json:"on"`
			ZeroOn       []string `json:"zero_on"`
			UnmeasuredOn []string `json:"unmeasured_on"`
		} `json:"metrics"`
	}
	readJSON(t, "layers.json", &notes)
	e2e := map[string]bool{"none": true}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	if len(notes.Metrics) != len(spec.PerLayer) {
		t.Errorf("layers.json notes %d metrics, BENCHMARK.json lists %d per-layer metrics", len(notes.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		n, ok := notes.Metrics[m.Name]
		if !ok || !e2e[n.Moves] || n.On == "" {
			t.Errorf("layers.json: %s needs the end-to-end metric and workload it moves (got %+v)", m.Name, n)
		}
		for _, z := range n.ZeroOn {
			if slices.Contains(n.UnmeasuredOn, z) || z == n.On {
				t.Errorf("layers.json: %s cannot be zero_on %s, where it is unmeasured or moves a metric", m.Name, z)
			}
		}
	}

	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			var stdout bytes.Buffer
			o := options{workload: w.Name, seed: 1, seconds: 0.1, trace: trace, scale: 6, setups: 2, spec: specPath, out: out, minOps: 1}
			code, err := run(o, &stdout)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%v: exit %d: %v", w.Name, trace, code, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				var rep struct{ Report map[string]value }
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
					t.Fatalf("%s: report line: %v", w.Name, err)
				}
				if er, ok := rep.Report["error_rate"]; !ok || er.Value != 0 || er.Unit != "ratio" {
					t.Errorf("%s: error_rate = %+v, want 0 ratio", w.Name, er)
				}
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v; it must never be zero", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			for name, n := range notes.Metrics {
				got := res.Metrics[name].Value
				if slices.Contains(n.ZeroOn, w.Name) && got != 0 {
					t.Errorf("%s: %s = %v, want 0 (the program did work of this layer on this path)", w.Name, name, got)
				}
				if slices.Contains(n.UnmeasuredOn, w.Name) && got != 0 {
					t.Errorf("%s: %s = %v, but layers.json says it is not measured here", w.Name, name, got)
				}
			}
			spans, err := os.ReadFile(filepath.Join(out, w.Name+"-seed1-trace1.spans.jsonl"))
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: span export missing: %v", w.Name, err)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetricsMatch keeps BENCHMARK.json and the metric tables in
// step: same names, units, directions and bounds, in the same order, and
// the same workloads.
func TestDeclaredMetricsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range d.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, want)
		}
	}
	for i, m := range d.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, want)
		}
	}
	if len(d.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program %d", len(d.Workloads), len(specs))
	}
	for _, w := range d.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("declared workload %q does not exist", w.Name)
		}
	}
}

// TestManifestCoversLayers checks that manifest.json maps every per-layer
// metric, and nothing else, to the end-to-end metric it should move.
func TestManifestCoversLayers(t *testing.T) {
	b, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Layers []struct {
			Metric string `json:"metric"`
			Moves  string `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range m.Layers {
		if l.Moves == "" {
			t.Errorf("%s: no end-to-end metric named", l.Metric)
		}
		mapped[l.Metric] = true
	}
	for _, d := range perLayer {
		if !mapped[d.name] {
			t.Errorf("manifest.json does not map %s", d.name)
		}
		delete(mapped, d.name)
	}
	for name := range mapped {
		t.Errorf("manifest.json maps undeclared metric %s", name)
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny op count:
// every declared metric is printed with its unit, the oracle passes and no
// op fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), []string{
					"--workload", w.Name, "--seed", "7", "--seconds", "3", "--ops", "12",
					"--trace", trace, "--workdir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\nstderr: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range d.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range d.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", name, got, ok, unit)
					}
				}
				if trace == "1" && res.Metrics["harness.error_rate"].Value != 0 {
					t.Errorf("harness.error_rate = %v", res.Metrics["harness.error_rate"].Value)
				}
			})
		}
	}
}

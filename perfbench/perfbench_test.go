package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the quick test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

func quickConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, quick: true,
		traceOut: t.TempDir()}
}

// TestQuickAllWorkloads runs every workload on both engines at tiny size,
// untraced and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit and that every job was correct.
func TestQuickAllWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := run(quickConfig(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestQuickCatchesWrongResult seeds a wrong result into each workload (a
// reducer pre-loaded with 1, or a corrupted traversal) and checks that the
// run reports it as a failure.
func TestQuickCatchesWrongResult(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := quickConfig(t, name, false)
		cfg.injectWrong = true
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed < 2 {
			t.Errorf("%s: seeded wrong results not caught: correct=%v failed=%d (want one per engine)", name, res.Correct, res.Failed)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at a tiny length, untraced and traced,
// and checks that the correctness check passes and that each run emits
// exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	passCap = 3
	defer func() { passCap = 0 }()
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for trace, run := range []func(int64, float64) (*outcome, error){w.run, w.layers} {
			want := spec.EndToEnd
			if trace == 1 {
				want = spec.PerLayer
			}
			o, err := run(1, 1)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.Name, trace, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", wl.Name, trace, o.correct, o.failed, o.attempted)
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(o.metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s: got %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

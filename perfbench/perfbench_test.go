package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, w workload, traced bool) (config, *bytes.Buffer) {
	t.Setenv("TMPDIR", t.TempDir()) // durable data dirs
	var out bytes.Buffer
	return config{
		w: w, sc: w.tiny, seed: 7, seconds: 300 * time.Millisecond,
		trace: traced, spansDir: t.TempDir(), out: &out,
	}, &out
}

// TestTinyWorkloadsPrintEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that the result passes the correctness
// gate and carries exactly the declared metrics with their units.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			cfg, out := tinyConfig(t, w, traced)
			res, err := runBench(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s trace=%v: correctness gate failed: %v\n%s", w.name, traced, res.verifyErr, out)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, traced, name, got.Unit, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: summary does not print %s", w.name, traced, name)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", w.name, traced, name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not marshal: %v", w.name, traced, err)
			}
		}
	}
}

// TestCorruptShadowFailsGate flips one byte of the shadow before the
// correctness gate; the read-back must catch it.
func TestCorruptShadowFailsGate(t *testing.T) {
	cfg, out := tinyConfig(t, workloads[0], false)
	cfg.corrupt = true
	res, err := runBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("correctness gate passed with a corrupted shadow\n%s", out)
	}
	if !strings.Contains(res.verifyErr.Error(), "read back") {
		t.Errorf("gate failed for another reason: %v", res.verifyErr)
	}
}

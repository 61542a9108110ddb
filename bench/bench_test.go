package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// Every workload at toy size (one pass or twenty requests, budget 16, two
// layers a network, a pool of 4) emits each declared metric exactly once,
// untraced and traced, with no failed request.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	// Traces and scratch files go to bench/out relative to the checkout's
	// root, as in a real run.
	t.Chdir("..")
	toy := scale{budget: 16, layers: 2, requests: 20, passes: 1, pool: 4, sampleTime: time.Millisecond}
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(w.Name, 1, 5, traced, toy)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d failed of %d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, registry declares %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, registry says %q", w.Name, d.Name, v.Unit, d.Unit)
				} else if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
}

// Names are what the driver accepts, used once, and BENCHMARK.json's
// registry is the harness's.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].Meaning = ""
		}
		return out
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("BENCHMARK.json workloads differ from the registry:\n%v\n%v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end differs from the registry:\n%v\n%v", file.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the registry")
	}
}

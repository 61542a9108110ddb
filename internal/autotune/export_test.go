package autotune

import (
	"context"

	"repro/internal/memsim"
)

// TuneNetworkTraces is TuneNetwork that also hands back the traces of the
// searches the sweep ran itself, in schedule order — the in-memory engine
// state (Trace.Refits) no verdict or cache entry carries — for the tests and
// benchmarks that live outside the package beside the model zoo.
func TuneNetworkTraces(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, []*Trace, error) {
	plan := planSweep(arch, layers, opts)
	if err := plan.run(context.Background(), cache, opts); err != nil {
		return nil, nil, err
	}
	var traces []*Trace
	for _, t := range plan.tasks {
		if !t.shared && t.trace != nil {
			traces = append(traces, t.trace)
		}
	}
	verdicts, err := plan.chooseKinds(opts)
	return verdicts, traces, err
}

// scanned reports whether the space's analytic scan has run.
func (sp *Space) scanned() bool { return sp.anTop != nil || sp.anErr != nil }

// scannedSpaces counts the tier's memoized spaces whose scan has run.
func (a *AnalyticDSE) scannedSpaces() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, sp := range a.spaces {
		if sp.scanned() {
			n++
		}
	}
	return n
}

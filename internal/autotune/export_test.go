package autotune

import (
	"context"
	"math"

	"repro/internal/conv"
	"repro/internal/memsim"
)

// SearchTrace is one search a sweep ran: its space and its trace.
type SearchTrace struct {
	*Trace
	Space *Space
}

// TuneNetworkTraces is TuneNetwork that also hands back the searches the
// sweep ran itself, in schedule order, with their spaces and traces — the
// in-memory engine state (Trace.Refits, Trace.Stop) no verdict or cache entry
// carries — for the tests and benchmarks that live outside the package beside
// the model zoo.
func TuneNetworkTraces(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, []SearchTrace, error) {
	plan := planSweep(arch, layers, opts)
	if err := plan.run(context.Background(), cache, opts); err != nil {
		return nil, nil, err
	}
	var searches []SearchTrace
	for _, t := range plan.tasks {
		if !t.shared && t.trace != nil {
			searches = append(searches, SearchTrace{t.trace, t.sp})
		}
	}
	verdicts, err := plan.chooseKinds(opts)
	return verdicts, searches, err
}

// MinFloor is the space's minimum tight floor over its measurable
// configurations, with no incumbent to seed the scan.
func (sp *Space) MinFloor() float64 { return sp.minFloor(math.Inf(1)) }

// Optimum dry-measures every configuration of the space and returns the
// fastest measurement; ok is false when nothing measures.
func (sp *Space) Optimum() (best Measurement, ok bool) {
	measure := KindMeasurer(sp.Arch, sp.Shape, sp.Kind)
	sp.enumerate(func(c conv.Config) bool {
		if m, mok := measure(c); mok && (!ok || m.Seconds < best.Seconds) {
			best, ok = m, true
		}
		return true
	})
	return best, ok
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

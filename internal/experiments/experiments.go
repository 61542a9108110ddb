// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulated-architecture substrate:
//
//	Fig9   — dataflow-vs-library speedups across image sizes, output
//	         channels and strides, direct + Winograd (1080Ti model)
//	Fig10  — batched direct convolution speedups (1080Ti model)
//	Fig11  — tuning-convergence curves of ATE vs SA/GA/random (V100 model)
//	Table2 — search-space sizes, convergence iterations and final GFLOPS
//	         for AlexNet layers, TVM-proxy vs ATE (V100 model)
//	Fig12  — end-to-end CNN inference, tuned vs library (V100 model)
//	Fig13  — architecture sensitivity (1080Ti / TitanX / GFX906)
//	Theory — pebble-game measurements vs the lower-bound formulas
//
// Each experiment returns report tables so cmd/repro, the benchmarks and the
// tests share one implementation.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// Options scales experiment effort. Zero values select full (paper-scale)
// settings; Quick shrinks sweeps and budgets for benchmarks and smoke runs.
type Options struct {
	// Quick runs reduced sweeps (fewer sizes, smaller tuning budgets).
	Quick bool
	// Budget overrides the per-layer tuning budget (measurements).
	Budget int
	// Seed makes tuning runs deterministic.
	Seed int64
}

func (o Options) budget(full, quick int) int {
	if o.Budget > 0 {
		return o.Budget
	}
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// tuneKind tunes one dataflow kind on its pruned searching domain with the
// given measurer (pass nil for a fresh memoized one).
func tuneKind(arch memsim.Arch, s shapes.ConvShape, kind autotune.Kind, measure autotune.Measurer, budget int, seed int64) (*autotune.Trace, error) {
	sp, err := autotune.NewSpace(s, arch, kind, 0, true)
	if err != nil {
		return nil, err
	}
	if measure == nil {
		measure = autotune.KindMeasurer(arch, s, kind)
	}
	opts := autotune.DefaultOptions()
	opts.Budget = budget
	opts.Patience = 0
	opts.Seed = seed
	return autotune.Tune(sp, measure, opts)
}

// bestLayerSeconds returns the simulated time of one layer under the
// library (baseline) and under our tuned dataflows, picking the best
// algorithm on each side — the per-layer contest behind Figure 12.
func bestLayerSeconds(arch memsim.Arch, s shapes.ConvShape, budget int, seed int64) (baseline, tuned float64, err error) {
	lib, err := conv.LibraryDirectDry(arch, s)
	if err != nil {
		return 0, 0, err
	}
	baseline = lib.Seconds
	if s.WinogradOK() && s.Hker == 3 {
		if wu, werr := conv.WinogradUnfusedDry(arch, s, 2); werr == nil && wu.Seconds < baseline {
			baseline = wu.Seconds
		}
	}
	tuned = math.Inf(1)
	for _, kind := range autotune.CandidateKinds(s, true, nil) {
		// One memoized measurer per (arch, layer, kind) serves the tuning run
		// and the coarse-grained default-config evaluation below: the engine's
		// own measurements warm the memo the default then hits.
		memo := autotune.NewMemoMeasure(arch, s, kind)
		tr, terr := tuneKind(arch, s, kind, memo.Measure, budget, seed)
		if terr != nil && kind == autotune.Direct {
			return 0, 0, terr
		}
		// An alternative kind's search may fail (no valid configuration in
		// its space); its design below is still a candidate.
		if terr == nil && tr.BestM.Seconds < tuned {
			tuned = tr.BestM.Seconds
		}
		// The coarse-grained dataflow designs themselves (Section 5's
		// optimality-condition configs) are always candidates; tuning can only
		// improve on them.
		if m, ok := memo.Measure(kind.Design(arch, s)); ok && m.Seconds < tuned {
			tuned = m.Seconds
		}
	}
	if math.IsInf(tuned, 1) || tuned <= 0 {
		return 0, 0, fmt.Errorf("experiments: degenerate tuned time for %v", s)
	}
	return baseline, tuned, nil
}

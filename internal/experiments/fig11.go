package experiments

import (
	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/report"
)

// Fig11Result carries the convergence curves of Figure 11 (best-so-far
// GFLOPS per measurement) for the four automation methods plus the library
// baseline level.
type Fig11Result struct {
	ATE      []float64
	SA       []float64
	GA       []float64
	Random   []float64
	Baseline float64
}

// Fig11 reproduces Figure 11: tuning AlexNet conv1 on the V100 model with
// the proposed engine (model-guided parallel random walks on the pruned
// domain) against simulated annealing, genetic and random search on the full
// domain — the strategies TVM provides — plus the library-baseline GFLOPS
// line.
func Fig11(opts Options) (*Fig11Result, *report.Table, error) {
	arch := memsim.V100
	layer := models.AlexNet().Layers[0].Shape
	budget := opts.budget(240, 48)

	pruned, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, true)
	if err != nil {
		return nil, nil, err
	}
	full, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, false)
	if err != nil {
		return nil, nil, err
	}
	measure := autotune.KindMeasurer(arch, layer, autotune.Direct)
	tuneOpts := autotune.DefaultOptions()
	tuneOpts.Budget = budget
	tuneOpts.Patience = 0
	tuneOpts.Seed = opts.seed()

	ate, err := autotune.Tune(pruned, measure, tuneOpts)
	if err != nil {
		return nil, nil, err
	}
	sa, err := autotune.SimulatedAnnealing(full, measure, tuneOpts)
	if err != nil {
		return nil, nil, err
	}
	ga, err := autotune.GeneticAlgorithm(full, measure, tuneOpts)
	if err != nil {
		return nil, nil, err
	}
	rnd, err := autotune.RandomSearch(full, measure, tuneOpts)
	if err != nil {
		return nil, nil, err
	}
	lib, err := conv.LibraryDirectDry(arch, layer)
	if err != nil {
		return nil, nil, err
	}

	// A best-so-far series of seconds (autotune.BestSoFar) read as the
	// layer's useful rate.
	rates := func(tr *autotune.Trace) []float64 {
		curve := autotune.BestSoFar(tr.History)
		for i, sec := range curve {
			curve[i] = layer.GFLOPS(sec)
		}
		return curve
	}
	res := &Fig11Result{
		ATE: rates(ate), SA: rates(sa), GA: rates(ga), Random: rates(rnd),
		Baseline: layer.GFLOPS(lib.Seconds),
	}
	t := report.New("Figure 11: tuning convergence on AlexNet conv1 (V100 model, best-so-far GFLOPS)",
		"measurement", "ATE", "SA", "GA", "random", "library")
	step := len(res.ATE) / 12
	if step < 1 {
		step = 1
	}
	at := func(c []float64, i int) float64 {
		if i >= len(c) {
			if len(c) == 0 {
				return 0
			}
			return c[len(c)-1]
		}
		return c[i]
	}
	for i := 0; i < budget; i += step {
		t.AddRowF(i+1, at(res.ATE, i), at(res.SA, i), at(res.GA, i), at(res.Random, i), res.Baseline)
	}
	return res, t, nil
}

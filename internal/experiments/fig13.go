package experiments

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/report"
	"repro/internal/shapes"
)

// Fig13Result is one bar triple of Figure 13: the useful GFLOPS
// (shapes.ConvShape.GFLOPS) of our tuned dataflow, the TVM proxy and the
// library baseline for one convolution case on one architecture.
type Fig13Result struct {
	Case    string
	Arch    string
	Ours    float64
	TVM     float64
	Library float64
}

// Fig13 reproduces Figure 13: sensitivity across GPU architectures. The four
// cases of the paper (direct 28×28 and 112×112 stride 1, direct 112×112
// stride 2, Winograd 112×112), all Cin=512, Cout=128, 3×3 kernels, run on
// the 1080Ti (Pascal), Titan X (Maxwell) and GFX906 (Vega) models.
func Fig13(opts Options) ([]Fig13Result, *report.Table, error) {
	archs := []memsim.Arch{memsim.GTX1080Ti, memsim.TitanX, memsim.GFX906}
	budget := opts.budget(96, 40)

	unfusedWinograd := func(arch memsim.Arch, s shapes.ConvShape) (*conv.Result, error) {
		return conv.WinogradUnfusedDry(arch, s, 2)
	}
	type cse struct {
		name    string
		s       shapes.ConvShape
		kind    autotune.Kind
		library func(memsim.Arch, shapes.ConvShape) (*conv.Result, error)
	}
	mk := func(hin, mu int) shapes.ConvShape {
		return shapes.ConvShape{Batch: 1, Cin: 512, Hin: hin, Win: hin,
			Cout: 128, Hker: 3, Wker: 3, Strid: mu}
	}
	cases := []cse{
		{"direct 28x28 mu=1", mk(28, 1), autotune.Direct, conv.LibraryDirectDry},
		{"direct 112x112 mu=1", mk(112, 1), autotune.Direct, conv.LibraryDirectDry},
		{"direct 112x112 mu=2", mk(112, 2), autotune.Direct, conv.LibraryDirectDry},
		{"winograd 112x112", mk(112, 1), autotune.Winograd, unfusedWinograd},
	}
	if opts.Quick {
		cases = cases[:2]
		archs = archs[:2]
	}

	var results []Fig13Result
	for _, c := range cases {
		for _, arch := range archs {
			base, err := c.library(arch, c.s)
			if err != nil {
				return nil, nil, err
			}
			ot, err := tuneKind(arch, c.s, c.kind, nil, budget, opts.seed())
			if err != nil {
				return nil, nil, err
			}
			full, err := autotune.NewSpace(c.s, arch, c.kind, 0, false)
			if err != nil {
				return nil, nil, err
			}
			topts := autotune.DefaultOptions()
			topts.Budget = budget
			topts.Patience = 0
			topts.Seed = opts.seed()
			topts.NoSeeds = true // the TVM proxy has no dataflow-design seeds
			topts.NoPrune = true // ... and no lower-bound oracle
			tt, err := autotune.Tune(full, autotune.KindMeasurer(arch, c.s, c.kind), topts)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, Fig13Result{
				Case: c.name, Arch: arch.Name, Ours: c.s.GFLOPS(ot.BestM.Seconds),
				TVM: c.s.GFLOPS(tt.BestM.Seconds), Library: c.s.GFLOPS(base.Seconds),
			})
		}
	}
	t := report.New("Figure 13: architecture sensitivity (attained GFLOPS, Cin=512, Cout=128, 3x3)",
		"case", "arch", "ours", "TVM-proxy", "library", "ours/library")
	for _, r := range results {
		t.AddRowF(r.Case, r.Arch, r.Ours, r.TVM, r.Library,
			fmt.Sprintf("%.2f", r.Ours/r.Library))
	}
	return results, t, nil
}

package experiments

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/report"
	"repro/internal/shapes"
)

// Fig9Result holds one panel row of Figure 9: the relative speedup of the
// tuned dataflow over the library baseline for one (algorithm, stride, Cout,
// Hin) point.
type Fig9Result struct {
	Algorithm string // "direct" or "winograd"
	Stride    int
	Cout      int
	HinWin    int
	Speedup   float64
}

// Fig9 reproduces Figure 9: relative speedup of the I/O-optimal dataflow
// (with auto-tuning) over the library baseline on the 1080Ti model, for the
// direct convolution at strides 1, 2, 4 and for the Winograd algorithm, over
// a grid of input sizes and output-channel counts. All convolutions use 3×3
// kernels and Cin = 256, as in the paper.
func Fig9(opts Options) ([]Fig9Result, *report.Table, error) {
	arch := memsim.GTX1080Ti
	sizes := []int{14, 56, 112, 196, 224}
	couts := []int{128, 256, 512, 1024}
	if opts.Quick {
		sizes = []int{56, 112}
		couts = []int{128, 512}
	}
	budget := opts.budget(64, 24)

	var results []Fig9Result
	add := func(algo string, mu int, cout, hin int, speedup float64) {
		results = append(results, Fig9Result{algo, mu, cout, hin, speedup})
	}

	for _, mu := range []int{1, 2, 4} {
		for _, cout := range couts {
			for _, hin := range sizes {
				s := shapes.ConvShape{
					Batch: 1, Cin: 256, Hin: hin, Win: hin,
					Cout: cout, Hker: 3, Wker: 3, Strid: mu,
				}
				lib, err := conv.LibraryDirectDry(arch, s)
				if err != nil {
					return nil, nil, err
				}
				tuned, err := tuneKind(arch, s, autotune.Direct, nil, budget, opts.seed())
				if err != nil {
					return nil, nil, err
				}
				add("direct", mu, cout, hin, lib.Seconds/tuned.BestM.Seconds)
			}
		}
	}
	for _, cout := range couts {
		for _, hin := range sizes {
			s := shapes.ConvShape{
				Batch: 1, Cin: 256, Hin: hin, Win: hin,
				Cout: cout, Hker: 3, Wker: 3, Strid: 1,
			}
			base, err := conv.WinogradUnfusedDry(arch, s, 2)
			if err != nil {
				return nil, nil, err
			}
			tuned, err := tuneKind(arch, s, autotune.Winograd, nil, budget, opts.seed())
			if err != nil {
				return nil, nil, err
			}
			add("winograd", 1, cout, hin, base.Seconds/tuned.BestM.Seconds)
		}
	}

	t := report.New("Figure 9: dataflow speedup over library baseline (1080Ti model, Cin=256, 3x3)",
		"algorithm", "stride", "Cout", "Hin=Win", "speedup")
	for _, r := range results {
		t.AddRowF(r.Algorithm, r.Stride, r.Cout, r.HinWin, r.Speedup)
	}
	var speeds []float64
	for _, r := range results {
		speeds = append(speeds, r.Speedup)
	}
	t.AddRow("geomean", "", "", "", fmt.Sprintf("%.2f", report.GeoMean(speeds)))
	return results, t, nil
}

package experiments

import (
	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/report"
	"repro/internal/shapes"
)

// Fig10Result is one bar of Figure 10: the batched direct-convolution
// speedup for a given input size and batch size.
type Fig10Result struct {
	HinWin  int
	Batch   int
	Speedup float64
}

// Fig10 reproduces Figure 10: relative speedup of the tuned dataflow over
// the library baseline for batched direct convolution on the 1080Ti model,
// with Hin=Win ∈ {14, 56, 112}, Cout=128, Cin=256, 3×3 kernels, stride 1 and
// batch sizes 32, 64, 128.
func Fig10(opts Options) ([]Fig10Result, *report.Table, error) {
	arch := memsim.GTX1080Ti
	sizes := []int{14, 56, 112}
	batches := []int{32, 64, 128}
	if opts.Quick {
		sizes = []int{14, 56}
		batches = []int{32, 64}
	}
	budget := opts.budget(64, 24)

	var results []Fig10Result
	for _, hin := range sizes {
		for _, batch := range batches {
			s := shapes.ConvShape{
				Batch: batch, Cin: 256, Hin: hin, Win: hin,
				Cout: 128, Hker: 3, Wker: 3, Strid: 1,
			}
			lib, err := conv.LibraryDirectDry(arch, s)
			if err != nil {
				return nil, nil, err
			}
			tuned, err := tuneKind(arch, s, autotune.Direct, nil, budget, opts.seed())
			if err != nil {
				return nil, nil, err
			}
			results = append(results, Fig10Result{hin, batch, lib.Seconds / tuned.BestM.Seconds})
		}
	}
	t := report.New("Figure 10: batched direct convolution speedup (1080Ti model, Cin=256, Cout=128, 3x3, stride 1)",
		"Hin=Win", "batch", "speedup")
	for _, r := range results {
		t.AddRowF(r.HinWin, r.Batch, r.Speedup)
	}
	return results, t, nil
}

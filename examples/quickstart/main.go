// The quickstart example shows the core workflow of the library on one
// ResNet-style layer: query the I/O lower bound, run the near I/O-optimal
// dataflow on a simulated GPU, verify the numerics against the reference
// convolution, and compare the measured data movement with the theory.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 3×3 stride-1 layer: 64→64 channels on a 56×56 image.
	layer, err := repro.NewShape(1, 64, 56, 64, 3, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	arch, err := repro.ArchByName("1080Ti")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer: %v\narch:  %s\n\n", layer, arch.Name)

	// 1. Theory: how much off-chip traffic must ANY schedule move?
	cfg := repro.DefaultDirectConfig(arch, layer)
	bound := repro.LowerBoundDirect(layer, cfg.SharedPerBlock)
	model := repro.DataflowIODirect(layer, cfg.SharedPerBlock, 1)
	fmt.Printf("Theorem 4.12 lower bound (S=%d):   %.2e elements\n", cfg.SharedPerBlock, bound)
	fmt.Printf("Equation 21 dataflow I/O model:    %.2e elements\n", model)

	// 2. Practice: run the Section 5.2 dataflow with real data and count
	// every float that crosses the off-chip boundary.
	input, kernels := repro.RandomOperands(layer, 7)
	res, err := repro.RunDirect(arch, layer, cfg, input, kernels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured off-chip traffic:         %.2e elements\n", float64(res.Counts.GlobalIO()))
	fmt.Printf("simulated runtime:                 %.3gs (%.0f GFLOP/s)\n\n", res.Seconds, layer.GFLOPS(res.Seconds))

	// 3. Correctness: the dataflow result must match the plain convolution.
	diff, err := repro.Verify(layer, res, input, kernels, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified against reference (max abs diff %.2g)\n\n", diff)

	// 4. Comparison: the library-style im2col baseline on the same machine.
	lib, err := repro.MeasureLibraryDirect(arch, layer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library baseline:                  %.3gs, %.2e elements moved\n",
		lib.Seconds, float64(lib.Counts.GlobalIO()))
	fmt.Printf("dataflow speedup over library:     %.2fx (%.1fx less traffic)\n",
		lib.Seconds/res.Seconds,
		float64(lib.Counts.GlobalIO())/float64(res.Counts.GlobalIO()))

	// 5. Energy: the paper's motivation is that data movement dominates
	// energy; the dataflow shifts the budget from DRAM to arithmetic.
	ours := arch.Energy(res.Counts)
	theirs := arch.Energy(lib.Counts)
	fmt.Printf("\nenergy: dataflow %.1fuJ (%.0f%% DRAM), library %.1fuJ (%.0f%% DRAM)\n",
		ours.Total()*1e6, 100*ours.DRAMShare(), theirs.Total()*1e6, 100*theirs.DRAMShare())
}

// The autotuning example reproduces the Figure 11 contest on AlexNet conv2:
// the paper's engine (learned cost model + parallel random walks on the
// optimality-condition-pruned domain) against the TVM-style searchers
// (simulated annealing, genetic, random) on the full domain, all measuring
// configurations on the same simulated V100.
//
// Run with: go run ./examples/autotuning
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/autotune"
)

func main() {
	// AlexNet conv2: 96 -> 256 channels, 27x27, 5x5 kernels, pad 2.
	layer, err := repro.NewShape(1, 96, 27, 256, 5, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	arch, err := repro.ArchByName("V100")
	if err != nil {
		log.Fatal(err)
	}
	const budget = 150

	pruned, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, true)
	if err != nil {
		log.Fatal(err)
	}
	full, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer: %v\n", layer)
	fmt.Printf("search space: %d configs full, %d pruned (%.0f%%)\n\n",
		full.Size(), pruned.Size(), 100*float64(pruned.Size())/float64(full.Size()))

	measure := autotune.KindMeasurer(arch, layer, autotune.Direct)
	opts := autotune.DefaultOptions()
	opts.Budget = budget
	opts.Patience = 0

	type entry struct {
		name  string
		trace *autotune.Trace
	}
	var entries []entry
	run := func(name string, f func() (*autotune.Trace, error)) {
		tr, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		entries = append(entries, entry{name, tr})
	}
	run("ATE (pruned)", func() (*autotune.Trace, error) { return autotune.Tune(pruned, measure, opts) })
	run("SA (full)", func() (*autotune.Trace, error) { return autotune.SimulatedAnnealing(full, measure, opts) })
	run("GA (full)", func() (*autotune.Trace, error) { return autotune.GeneticAlgorithm(full, measure, opts) })
	run("random (full)", func() (*autotune.Trace, error) { return autotune.RandomSearch(full, measure, opts) })

	lib, err := repro.MeasureLibraryDirect(arch, layer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %12s %12s %10s\n", "method", "best GFLOPS", "vs library", "found at")
	fmt.Printf("%-14s %12.0f %12s %10s\n", "library", layer.GFLOPS(lib.Seconds), "1.00x", "-")
	for _, e := range entries {
		fmt.Printf("%-14s %12.0f %11.2fx %10d\n",
			e.name, layer.GFLOPS(e.trace.BestM.Seconds), lib.Seconds/e.trace.BestM.Seconds, e.trace.ConvergedAt)
	}

	fmt.Println("\nbest-so-far GFLOPS by measurement count:")
	fmt.Printf("%8s", "after")
	for _, e := range entries {
		fmt.Printf(" %13s", e.name)
	}
	fmt.Println()
	for _, at := range []int{10, 25, 50, 100, budget} {
		fmt.Printf("%8d", at)
		for _, e := range entries {
			curve := autotune.BestSoFar(e.trace.History)
			idx := min(at, len(curve)) - 1
			fmt.Printf(" %13.0f", layer.GFLOPS(curve[idx]))
		}
		fmt.Println()
	}
	fmt.Printf("\nwinning configuration (ATE): %v\n", entries[0].trace.Best)
}

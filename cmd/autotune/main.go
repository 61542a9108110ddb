// Command autotune tunes one convolution layer with the paper's engine and
// prints the convergence trace and the winning configuration.
//
// Usage:
//
//	autotune -cin 96 -hw 27 -cout 256 -k 5 -pad 2 -arch V100 -budget 300
//	autotune -kind winograd -cin 256 -hw 13 -cout 384 -k 3 -pad 1
//	autotune -kind fft -cin 96 -hw 27 -cout 256 -k 5 -pad 2    # tiled frequency-domain template
//	autotune -kind igemm -cin 64 -hw 56 -cout 64 -k 3 -pad 1   # implicit-GEMM template
//	autotune -groups 32 -cin 32 -hw 112 -cout 32 -k 3 -pad 1   # depthwise layer, group-aware space
//	autotune -workers 8 -measure-latency 500us -cin 96 -hw 27 -cout 256 -k 5 -pad 2
//	autotune -no-prune -cin 96 -hw 27 -cout 256 -k 5 -pad 2   # disable bound-guided pruning
//	autotune -cache tune.json -budget 300 ...                 # persist verdict + engine state
//	autotune -cache tune.json -budget 600 -resume ...         # continue the cached search, nothing re-measured
//	autotune -analytic -cin 96 -hw 27 -cout 256 -k 5 -pad 2   # also print the measurement-free analytic ranking
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/autotune"
)

func main() {
	cin := flag.Int("cin", 96, "input channels")
	hw := flag.Int("hw", 27, "input height and width")
	cout := flag.Int("cout", 256, "output channels")
	k := flag.Int("k", 5, "kernel size")
	stride := flag.Int("stride", 1, "stride")
	pad := flag.Int("pad", 2, "padding")
	batch := flag.Int("batch", 1, "batch size")
	groups := flag.Int("groups", 1, "channel groups (cin and cout must divide; >1 = grouped/depthwise)")
	archName := flag.String("arch", "V100", "architecture name")
	kindName := flag.String("kind", "direct", "direct|winograd|fft|igemm")
	budget := flag.Int("budget", 300, "measurement budget")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "parallel measurement workers (result is identical for any count)")
	latency := flag.Duration("measure-latency", 0, "emulated per-measurement hardware round-trip (e.g. 500us)")
	noPrune := flag.Bool("no-prune", false, "disable bound-guided pruning (measure every selected candidate)")
	minDelta := flag.Float64("min-delta", 0, "relative improvement below which patience is not reset (0 = any improvement resets)")
	emit := flag.Bool("emit", false, "print the kernel schedule of the winning configuration")
	analytic := flag.Bool("analytic", false, "also print the measurement-free analytic ranking (the tier the service degrades to) next to the measured verdict")
	cachePath := flag.String("cache", "", "tuning-cache JSON file (read if present, updated on exit)")
	resume := flag.Bool("resume", false, "with -cache: continue a cached search at the current -budget; the persisted history replays and no measurement repeats")
	flag.Parse()
	if *resume && *cachePath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -cache")
		os.Exit(2)
	}

	s, err := repro.NewGroupedShape(*batch, *cin, *hw, *cout, *k, *stride, *pad, *groups)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	arch, err := repro.ArchByName(*archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kind, err := repro.ParseKind(*kindName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cache := autotune.NewCache()
	if *cachePath != "" {
		if err := cache.LoadFile(*cachePath); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "cache: %v\n", err)
			os.Exit(1)
		}
	}
	if cfg, m, ok := cache.Get(arch.Name, kind, s); ok && !*resume {
		fmt.Printf("cache hit: %v\nsimulated: %.3gs (%.0f GFLOP/s)\n", cfg, m.Seconds, s.GFLOPS(m.Seconds))
		if *emit {
			fmt.Println()
			fmt.Print(autotune.EmitSchedule(kind, s, cfg))
		}
		return
	}

	opts := repro.TuneOptions{Budget: *budget, Seed: *seed, Workers: *workers,
		MeasureLatency: *latency, NoPrune: *noPrune, MinDelta: *minDelta}
	var trace *repro.TuneTrace
	replayed, covered := 0, false
	if *resume {
		// Continue the cached search: its persisted measurement history
		// replays into the engine and only the remaining budget measures.
		replayed = cache.StateSize(arch.Name, kind, s)
		if replayed == 0 {
			if cfg, m, ok := cache.Get(arch.Name, kind, s); ok {
				fmt.Printf("cache hit (entry carries no persisted search state; nothing to resume): %v\nsimulated: %.3gs (%.0f GFLOP/s)\n",
					cfg, m.Seconds, s.GFLOPS(m.Seconds))
				if *emit {
					fmt.Println()
					fmt.Print(autotune.EmitSchedule(kind, s, cfg))
				}
				return
			}
		}
		// A covered request measures nothing: its trace is rebuilt from the
		// cache entry, which keeps no prune count.
		_, remaining := cache.Covered(arch.Name, kind, s, *budget, true)
		covered = replayed > 0 && remaining == 0
		trace, err = repro.ResumeKind(arch, s, kind, cache, opts)
	} else {
		trace, err = repro.TuneKind(arch, s, kind, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("layer:       %v\n", s)
	fmt.Printf("arch:        %s\n", arch.Name)
	fmt.Printf("kind:        %s\n", kind)
	if covered {
		fmt.Printf("measurements %d (the cache covers budget %d; nothing measured fresh), best found at #%d\n",
			trace.Measurements, *budget, trace.ConvergedAt)
	} else {
		fmt.Printf("measurements %d (%d candidates pruned by the I/O lower bound), best found at #%d\n",
			trace.Measurements, trace.Pruned, trace.ConvergedAt)
	}
	if replayed > 0 {
		fmt.Printf("resumed:     %d measurements replayed from cache, %d fresh\n",
			replayed, trace.Measurements-replayed)
	}
	fmt.Printf("best config: %v\n", trace.Best)
	fmt.Printf("simulated:   %.3gs (%.0f GFLOP/s)\n", trace.BestM.Seconds, s.GFLOPS(trace.BestM.Seconds))

	// Roofline diagnosis of the winner's tunable launch; a kind with fixed
	// launches beside it (the FFT transforms) reports their exact cost, so
	// the two lines add up to the simulated time above.
	if counts, launch, fixed, err := kind.Phase(arch, s, trace.Best); err == nil {
		fmt.Printf("diagnosis:   %v\n", arch.Explain(counts, launch))
		if fixed > 0 {
			fmt.Printf("             + %.3gs in fixed launches (not tunable)\n", fixed)
		}
		fmt.Println()
	}

	lib, err := repro.MeasureLibraryDirect(arch, s)
	if err == nil {
		fmt.Printf("library direct baseline: %.3gs (%.0f GFLOP/s) -> speedup %.2fx\n",
			lib.Seconds, s.GFLOPS(lib.Seconds), lib.Seconds/trace.BestM.Seconds)
	}

	if *analytic {
		printAnalytic(arch, s, kind, cache, trace)
	}

	fmt.Println("\nconvergence (best-so-far GFLOP/s):")
	curve := autotune.BestSoFar(trace.History)
	step := len(curve) / 15
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(curve); i += step {
		fmt.Printf("  after %4d: %8.1f\n", i+1, s.GFLOPS(curve[i]))
	}

	if *emit {
		fmt.Println()
		fmt.Print(autotune.EmitSchedule(kind, s, trace.Best))
	}
	if *cachePath != "" {
		// PutTrace persists the engine state (the measurement history)
		// alongside the verdict, so a later -resume at a higher budget
		// continues this search instead of restarting it.
		cache.PutTrace(arch.Name, kind, s, trace)
		if err := cache.SaveFile(*cachePath); err != nil {
			fmt.Fprintf(os.Stderr, "cache save: %v\n", err)
			os.Exit(1)
		}
	}
}

// printAnalytic prints the instant-verdict tier's top-5 ranking alongside
// the measured verdict: per config the admissible floor, the calibrated
// estimate, and — since this process has a real measurer at hand — the
// actual measured time and the winner's regret against the tuned best.
// This is what a degraded tuned daemon would have answered for this layer.
func printAnalytic(arch repro.Arch, s repro.Shape, kind autotune.Kind, cache *autotune.Cache, trace *repro.TuneTrace) {
	sp, err := autotune.NewSpace(s, arch, kind, 0, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analytic: %v\n", err)
		return
	}
	cal := autotune.CalibrateAnalytic(cache, arch)
	top, err := sp.AnalyticTop(5, cal)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analytic: %v\n", err)
		return
	}
	fmt.Printf("\nanalytic ranking (calibration %.2fx, no measurements):\n", cal)
	mm := autotune.NewMemoMeasure(arch, s, kind)
	for i, v := range top {
		line := fmt.Sprintf("  #%d floor %.3gs estimate %.3gs", i+1, v.Floor, v.Seconds)
		if m, ok := mm.Measure(v.Config); ok {
			line += fmt.Sprintf(" measured %.3gs", m.Seconds)
		}
		fmt.Printf("%s  %v\n", line, v.Config)
	}
	if m, ok := mm.Measure(top[0].Config); ok && trace.BestM.Seconds > 0 {
		fmt.Printf("analytic winner vs tuned best: %.2fx regret (%.3gs vs %.3gs)\n",
			m.Seconds/trace.BestM.Seconds, m.Seconds, trace.BestM.Seconds)
	}
}

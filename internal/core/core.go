// Package core composes the paper's primary contribution into one call: the
// I/O-lower-bound-guided analysis of a convolution layer. Given a layer and
// a simulated architecture it produces, for each applicable algorithm,
// the Theorem 4.12/4.20 lower bound, the Section-5 dataflow design derived
// from it, the auto-tuned refinement of that design, the measured traffic
// and modeled runtime — everything the paper's pipeline
// (theory → dataflow → tuning) yields, in one structure.
package core

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// AlgorithmReport is the bound-to-tuned pipeline outcome for one algorithm.
type AlgorithmReport struct {
	Algorithm string // "direct" or "winograd"
	// LowerBound is the minimum off-chip traffic (elements) any schedule
	// must move with the design's shared-memory size as S.
	LowerBound float64
	// DesignConfig is the untuned Section-5 dataflow design.
	DesignConfig conv.Config
	// Design is the measured outcome of the design config.
	Design *conv.Result
	// TunedConfig is the engine's refinement of the design.
	TunedConfig conv.Config
	// Tuned is the measured outcome of the tuned config.
	Tuned *conv.Result
	// BoundGap is Tuned traffic / LowerBound — how near-optimal the tuned
	// dataflow's data movement is.
	BoundGap float64
}

// Analysis is the full layer report.
type Analysis struct {
	Shape   shapes.ConvShape
	Arch    memsim.Arch
	Library *conv.Result // best library baseline (direct paths)
	Reports []AlgorithmReport
	// Best indexes the fastest tuned report.
	Best int
}

// Speedup is the headline number: library time over best tuned time.
func (a *Analysis) Speedup() float64 {
	if a.Library == nil || len(a.Reports) == 0 {
		return 0
	}
	return a.Library.Seconds / a.Reports[a.Best].Tuned.Seconds
}

// Options bounds the tuning effort.
type Options struct {
	Budget int   // measurements per algorithm (default 96)
	Seed   int64 // determinism (default 1)
}

// Analyze runs the complete pipeline on one layer.
func Analyze(arch memsim.Arch, s shapes.ConvShape, opts Options) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.Budget <= 0 {
		opts.Budget = 96
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	a := &Analysis{Shape: s, Arch: arch}
	var err error
	if a.Library, err = conv.LibraryDirectDry(arch, s); err != nil {
		return nil, err
	}

	kinds := []autotune.Kind{autotune.Direct}
	if s.WinogradOK() && s.Hker == 3 && s.Hout() >= 2 && s.Wout() >= 2 {
		kinds = append(kinds, autotune.Winograd)
	}
	for _, kind := range kinds {
		r, err := analyze(arch, s, kind, opts)
		if err != nil {
			return nil, err
		}
		a.Reports = append(a.Reports, *r)
	}
	for i, r := range a.Reports {
		if r.Tuned.Seconds < a.Reports[a.Best].Tuned.Seconds {
			a.Best = i
		}
	}
	return a, nil
}

// analyze is the bound → design → tune pipeline for one algorithm kind.
func analyze(arch memsim.Arch, s shapes.ConvShape, kind autotune.Kind, opts Options) (*AlgorithmReport, error) {
	design := kind.Design(arch, s)
	designRes, err := kind.Dry(arch, s, design)
	if err != nil {
		return nil, fmt.Errorf("core: %s design measurement: %w", kind, err)
	}
	sp, err := autotune.NewSpace(s, arch, kind, 0, true)
	if err != nil {
		return nil, err
	}
	topts := autotune.DefaultOptions()
	topts.Budget = opts.Budget
	topts.Seed = opts.Seed
	tr, err := autotune.Tune(sp, autotune.KindMeasurer(arch, s, kind), topts)
	if err != nil {
		return nil, err
	}
	// The engine refines the *snapped* design (the seed must lie on the
	// space's axes); the raw design itself stays a candidate, so tuning
	// never reports a regression over the Section-5 starting point.
	best := tr.Best
	if designRes.Seconds < tr.BestM.Seconds {
		best = design
	}
	tunedRes, err := kind.Dry(arch, s, best)
	if err != nil {
		return nil, err
	}
	lb := kind.LowerBound(s, best)
	return &AlgorithmReport{
		Algorithm:    kind.String(),
		LowerBound:   lb,
		DesignConfig: design,
		Design:       designRes,
		TunedConfig:  best,
		Tuned:        tunedRes,
		BoundGap:     gap(float64(tunedRes.Counts.GlobalIO()), lb),
	}, nil
}

func gap(measured, bound float64) float64 {
	if bound <= 0 {
		return 0 // the asymptotic bound is vacuous at this scale
	}
	return measured / bound
}

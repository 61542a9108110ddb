package autotune

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/conv"
)

// This file holds the searcher baselines the paper compares against in
// Figure 11: simulated annealing, genetic search and random search, all
// operating on the (typically unpruned) configuration space with direct
// measurements — the strategies TVM offers. The baselines are deliberately
// bound-blind: they never consult Space.BoundSeconds and measure every
// candidate they select, which is exactly what sharpens the Figure 11 /
// Table 2 contrast with the bound-guided engine in tuner.go.

// RandomSearch measures uniformly sampled configurations.
func RandomSearch(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "random"}}
	for !rec.over(opts.Budget, opts.Patience) {
		c := sp.Sample(rng)
		m, ok := measure(c)
		rec.add(c, m, ok)
	}
	return finish(rec)
}

// SimulatedAnnealing walks the space accepting uphill moves with a cooling
// Metropolis criterion on measured cost.
func SimulatedAnnealing(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "sa"}}

	cur := sp.Sample(rng)
	curM, curOK := measure(cur)
	rec.add(cur, curM, curOK)
	for !curOK && rec.trace.Measurements < opts.Budget {
		cur = sp.Sample(rng)
		curM, curOK = measure(cur)
		rec.add(cur, curM, curOK)
	}
	// Geometric cooling from a temperature matched to the initial cost.
	temp := curM.Seconds
	cool := math.Pow(1e-3, 1/float64(opts.Budget)) // reach temp/1000 at budget
	for !rec.over(opts.Budget, opts.Patience) {
		next := sp.Neighbor(cur, rng)
		m, ok := measure(next)
		rec.add(next, m, ok)
		if ok {
			delta := m.Seconds - curM.Seconds
			if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-12)) {
				cur, curM = next, m
			}
		}
		temp *= cool
	}
	return finish(rec)
}

// GeneticAlgorithm evolves a population with axis-wise crossover and
// Neighbor mutation; fitness is measured speed.
func GeneticAlgorithm(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "ga"}}

	popSize := opts.Walkers * 2
	if popSize < 8 {
		popSize = 8
	}
	type indiv struct {
		cfg conv.Config
		m   Measurement
		ok  bool
	}
	pop := make([]indiv, 0, popSize)
	for len(pop) < popSize && rec.trace.Measurements < opts.Budget {
		c := sp.Sample(rng)
		m, ok := measure(c)
		rec.add(c, m, ok)
		pop = append(pop, indiv{c, m, ok})
	}
	better := func(a, b indiv) bool {
		if a.ok != b.ok {
			return a.ok
		}
		return a.m.Seconds < b.m.Seconds
	}
	tournament := func() indiv {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if better(a, b) {
			return a
		}
		return b
	}
	for !rec.over(opts.Budget, opts.Patience) {
		p1, p2 := tournament(), tournament()
		child := crossover(sp, p1.cfg, p2.cfg, rng)
		if rng.Float64() < 0.4 {
			child = sp.Neighbor(child, rng)
		}
		m, ok := measure(child)
		rec.add(child, m, ok)
		// Replace the worst individual.
		worst := 0
		for i := range pop {
			if better(pop[worst], pop[i]) {
				worst = i
			}
		}
		if better(indiv{child, m, ok}, pop[worst]) {
			pop[worst] = indiv{child, m, ok}
		}
	}
	return finish(rec)
}

// crossover mixes the axes of two parents, falling back to the first parent
// if the mix is inadmissible.
func crossover(sp *Space, a, b conv.Config, rng *rand.Rand) conv.Config {
	c := a
	if rng.Intn(2) == 0 {
		c.TileX, c.ThreadsX = b.TileX, b.ThreadsX
	}
	if rng.Intn(2) == 0 {
		c.TileY, c.ThreadsY = b.TileY, b.ThreadsY
	}
	if rng.Intn(2) == 0 {
		c.TileZ, c.ThreadsZ = b.TileZ, b.ThreadsZ
	}
	if rng.Intn(2) == 0 {
		c.SharedPerBlock = b.SharedPerBlock
	}
	if rng.Intn(2) == 0 {
		c.Layout = b.Layout
	}
	if sp.admissible(c) {
		return c
	}
	return a
}

func finish(rec *record) (*Trace, error) {
	if !rec.found {
		return nil, fmt.Errorf("autotune: %s found no valid configuration in %d measurements",
			rec.trace.Method, rec.trace.Measurements)
	}
	return &rec.trace, nil
}

package autotune

import (
	"math"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// This file is the measurement fast path of the engine. A tuning run
// evaluates hundreds of configurations against one (arch, shape, kind)
// triple, and the expensive part of each evaluation — the exact dataflow
// traffic counts — depends only on the output tile (x, y, z) plus the
// Winograd edge e. Threads, shared-memory size and layout enter through the
// launch geometry, which is O(1) to rebuild. MemoMeasure therefore caches
// counts per tile and recomputes launch + time per call: every
// thread/Sb/layout variant of a tile the walkers visit is an O(1) lookup,
// the steady state allocates nothing, and the produced Measurements are
// bit-identical to the unmemoized conv.Dry* evaluators (tests pin this).
// A search measures each configuration once (search.seen), so nothing above
// the counts is memoised.

// countsEntry is a memoized counts computation. ok is false when the counts
// evaluator itself rejected the tile (e.g. no transform for e).
type countsEntry struct {
	counts memsim.Counts
	ok     bool
}

// MemoMeasure is a reusable, concurrency-safe measurer for one
// (arch, shape, kind) triple with one memo level: dataflow counts per tile
// (tileKey), shared by every thread/Sb/layout variant of the tile. The zero
// value is not usable; construct with NewMemoMeasure.
type MemoMeasure struct {
	arch     memsim.Arch
	s        shapes.ConvShape
	row      *kindSpec // the kind's row of kindTable, resolved once
	shapeErr error     // non-nil when the shape itself is invalid

	// fixedSec is the cost of the row's fixed launches (the FFT pipeline's
	// transform phases; zero for a single-launch dataflow), computed once at
	// construction; each measurement adds it so results stay bit-identical
	// to the row's dry evaluator.
	fixedSec float64

	mu   sync.RWMutex
	memo map[tileKey]countsEntry
}

// NewMemoMeasure builds a memoized measurer. The same instance may be
// shared by every strategy and worker tuning the same triple — the executor
// calls Measure concurrently when Options.Workers > 1.
func NewMemoMeasure(arch memsim.Arch, s shapes.ConvShape, kind Kind) *MemoMeasure {
	mm := &MemoMeasure{arch: arch, s: s, row: kind.spec(),
		shapeErr: s.Validate(),
		memo:     make(map[tileKey]countsEntry)}
	if mm.row.fixed != nil && mm.shapeErr == nil {
		mm.fixedSec = mm.row.fixed(arch, s)
	}
	return mm
}

// Measure evaluates one configuration: validate, fetch (or compute) the
// tile's counts, rebuild the launch and run the time model. Results are
// bit-identical to the unmemoized dry evaluators.
func (mm *MemoMeasure) Measure(c conv.Config) (Measurement, bool) {
	// Validation is the Dry evaluators' own; a config they reject is rejected
	// here before any counts are computed.
	if mm.shapeErr != nil || mm.row.validate(c, mm.s, mm.arch) != nil {
		return Measurement{}, false
	}

	key := tileOf(c)
	mm.mu.RLock()
	ent, hit := mm.memo[key]
	mm.mu.RUnlock()
	if !hit {
		counts, err := mm.row.counts(mm.s, c)
		ent = countsEntry{counts: counts, ok: err == nil}
		mm.mu.Lock()
		mm.memo[key] = ent
		mm.mu.Unlock()
	}
	if !ent.ok {
		return Measurement{}, false
	}

	l := mm.row.launch(mm.s, c)
	seconds := mm.fixedSec + mm.arch.Time(ent.counts, l)
	if math.IsInf(seconds, 1) {
		return Measurement{}, false
	}
	return Measurement{Seconds: seconds}, true
}

// Len reports how many distinct tile keys have been evaluated — a
// diagnostic for tests and tools.
func (mm *MemoMeasure) Len() int {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return len(mm.memo)
}

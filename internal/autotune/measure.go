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
// traffic counts — depends only on the output-tile axes (x, y, z) plus the
// Winograd edge e. Threads, shared-memory size and layout enter through the
// launch geometry, which is O(1) to rebuild. MemoMeasure therefore caches
// counts per tile key and recomputes launch + time per call: every
// thread/Sb/layout variant of a tile the walkers visit is an O(1) lookup,
// the steady state allocates nothing, and the produced Measurements are
// bit-identical to the unmemoized conv.Dry* evaluators (tests pin this).

// countsKey is the memo key: the config axes that change dataflow counts.
type countsKey struct {
	x, y, z, e int
}

// countsEntry is a memoized counts computation. ok is false when the counts
// evaluator itself rejected the tile (e.g. no transform for e).
type countsEntry struct {
	counts memsim.Counts
	ok     bool
}

// measEntry is a memoized full measurement (per complete config).
type measEntry struct {
	m  Measurement
	ok bool
}

// MemoMeasure is a reusable, concurrency-safe measurer for one
// (arch, shape, kind) triple with two memo levels: dataflow counts per
// tile key (shared by every thread/Sb/layout variant of a tile) and the
// finished Measurement per complete config (so re-evaluating a config —
// across search strategies, network layers or repeated sweeps — is one map
// lookup). The zero value is not usable; construct with NewMemoMeasure.
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
	memo map[countsKey]countsEntry
	full map[conv.Config]measEntry
}

// NewMemoMeasure builds a memoized measurer. The same instance may be
// shared by every strategy and worker tuning the same triple — the executor
// calls Measure concurrently when Options.Workers > 1.
func NewMemoMeasure(arch memsim.Arch, s shapes.ConvShape, kind Kind) *MemoMeasure {
	mm := &MemoMeasure{arch: arch, s: s, row: kind.spec(),
		shapeErr: s.Validate(),
		memo:     make(map[countsKey]countsEntry),
		full:     make(map[conv.Config]measEntry)}
	if mm.row.fixed != nil && mm.shapeErr == nil {
		mm.fixedSec = mm.row.fixed(arch, s)
	}
	return mm
}

// Measure evaluates one configuration: validation and launch/time are
// recomputed per call (they depend on every axis), counts come from the
// memo. Results are bit-identical to the unmemoized dry evaluators.
func (mm *MemoMeasure) Measure(c conv.Config) (Measurement, bool) {
	mm.mu.RLock()
	fe, hit := mm.full[c]
	mm.mu.RUnlock()
	if hit {
		return fe.m, fe.ok
	}
	fe.m, fe.ok = mm.measureCold(c)
	mm.mu.Lock()
	mm.full[c] = fe
	mm.mu.Unlock()
	return fe.m, fe.ok
}

// measureCold evaluates a config the full memo has not seen: validate,
// fetch (or compute) the tile's counts, rebuild the launch and run the time
// model. Results are bit-identical to the unmemoized evaluators.
func (mm *MemoMeasure) measureCold(c conv.Config) (Measurement, bool) {
	// Validation is the Dry evaluators' own; a config they reject is rejected
	// here before any counts are computed.
	if mm.shapeErr != nil || mm.row.validate(c, mm.s, mm.arch) != nil {
		return Measurement{}, false
	}

	key := countsKey{x: c.TileX, y: c.TileY, z: c.TileZ, e: c.WinogradE}
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

package autotune

import (
	"math"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
)

// This file turns the paper's I/O lower bounds (Theorems 4.12 and 4.20)
// into a pruning oracle for the search engine. For any configuration, the
// simulated runtime is at least
//
//	launch + waves·waveLatency + Q(Sb)·4 / bandwidth
//
// because the time model adds the launch terms unconditionally and its
// global-memory term is the measured off-chip traffic over (at most) full
// bandwidth — and the measured traffic of any dataflow using Sb floats of
// fast memory is at least the theorem's Q(Sb). Where the arithmetic is
// configuration-independent (the direct dataflows, the FFT product phase),
// flops/peak joins the max as a second floor. A candidate whose floor
// already exceeds the best measured time can therefore be discarded without
// measuring it (branch-and-bound); the tests assert the floor never exceeds
// the measured time of any admissible configuration.
//
// The theorem evaluation depends on the configuration only through the
// fast-memory size Sb and the tile edge e (the arithmetic floor through e
// alone), so — mirroring the MemoMeasure tile-key machinery — both are
// memoized per (Sb, e) key and a steady-state BoundSeconds call is one map
// lookup plus O(1) launch geometry.

// boundKey is the memo key: the only config axes the theorems see.
type boundKey struct {
	sb, e int
}

// floorTerms are the two row-evaluated terms of a time floor: the theorem's
// minimum off-chip traffic q, in elements, and the arithmetic floor of the
// tunable launch, in flops.
type floorTerms struct {
	q, arith float64
}

// boundMemo caches the floor terms per (Sb, e) per space. It is safe for
// concurrent use: a Space may be shared by concurrent tuning runs
// (TuneNetwork's layer workers, tests under -race).
type boundMemo struct {
	mu   sync.RWMutex
	memo map[boundKey]floorTerms
}

// launchFloor is the launch-and-validity prologue of both time floors
// (BoundSeconds here, analyticFloor in analytic.go): the launch geometry of
// c and the time model's own scheduling term for it. Being one function is
// what keeps the two floors — and through them the paper's contract, floor
// ≤ every measurement — from drifting apart per kind. ok is false when the
// floor is already decided, and sched is then that floor: 0 (no useful
// bound applies: an empty axis, or a configuration the dataflow cannot
// launch) or +Inf (the block does not fit the device at all; its
// measurement can only fail).
func (sp *Space) launchFloor(c conv.Config) (l memsim.Launch, sched float64, resident int, ok bool) {
	if c.TileX < 1 || c.TileY < 1 || c.TileZ < 1 || c.SharedPerBlock < 1 ||
		c.ThreadsX < 1 || c.ThreadsY < 1 || c.ThreadsZ < 1 {
		return l, 0, 0, false
	}
	if sp.row.launchable != nil && !sp.row.launchable(sp.Shape, c) {
		return l, 0, 0, false
	}
	l = sp.row.launch(sp.Shape, c)
	if l.Blocks < 1 || l.ThreadsPerBlock < 1 {
		return l, 0, 0, false
	}
	// The scheduling floor is the time model's own additive term, via the
	// shared memsim helper — never a re-derived copy, so the two cannot
	// drift apart.
	sched, resident = sp.Arch.ScheduleCost(l)
	if resident == 0 {
		return l, math.Inf(1), 0, false
	}
	return l, sched, resident, true
}

// BoundSeconds returns a lower bound (in simulated seconds) on what any
// measurement of c can report, or 0 when no useful bound applies. A
// configuration whose block does not fit the device at all gets +Inf: its
// measurement can only fail.
func (sp *Space) BoundSeconds(c conv.Config) float64 {
	_, sched, _, ok := sp.launchFloor(c)
	if !ok {
		return sched
	}
	ft := sp.floorTerms(c.SharedPerBlock, c.WinogradE)
	t := sched + ft.q*4/(sp.Arch.BandwidthGBs*1e9)
	if sp.row.flatArith {
		// Arithmetic that is the same for every tiling is a second
		// configuration-independent floor: peak compute.
		if alt := sched + ft.arith/(sp.Arch.PeakGFLOPS*1e9); alt > t {
			t = alt
		}
	}
	// Fixed launches cost the same for every config; the tunable launch is
	// floored by its bandwidth/compute roofline.
	return t + sp.fixedSec
}

// floorTerms returns the memoized row terms for fast memory sb and tile
// edge e: the kind's theorem lower bound (Theorem 4.12 / 4.20, or the FFT
// composite) and its arithmetic floor.
func (sp *Space) floorTerms(sb, e int) floorTerms {
	key := boundKey{sb: sb, e: e}
	sp.bmemo.mu.RLock()
	ft, hit := sp.bmemo.memo[key]
	sp.bmemo.mu.RUnlock()
	if hit {
		return ft
	}
	ft = floorTerms{q: sp.row.lowerBound(sp.Shape, e, sb), arith: sp.row.arith(sp.Shape, e)}
	sp.bmemo.mu.Lock()
	if sp.bmemo.memo == nil {
		sp.bmemo.memo = make(map[boundKey]floorTerms)
	}
	sp.bmemo.memo[key] = ft
	sp.bmemo.mu.Unlock()
	return ft
}

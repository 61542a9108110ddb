package autotune

import (
	"math"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
)

// This file turns the paper's I/O lower bounds (Theorems 4.12 and 4.20)
// into time floors. The simulated runtime of a configuration is the time
// model, memsim.Arch.Seconds, applied to the traffic and flops its dataflow
// actually incurs at its launch's rates, plus the kind's fixed launches.
// Seconds is monotone in each operand, the measured off-chip traffic of any
// dataflow using Sb floats of fast memory is at least the theorem's Q(Sb),
// and its flops are at least the kind's arithmetic floor, so
//
//	Seconds(rates; Q(Sb)·4, 0, arith) + fixed
//
// never exceeds a measurement — and neither does the same expression at
// better rates. The engine uses it twice (Space.floor): the tight floor at
// the launch's own rates ranks the space for the analytic tier, the pruning
// floor at ideal rates (Hide = Eff = 1) is the branch-and-bound oracle: a
// candidate whose pruning floor already exceeds the best measured time is
// discarded without measuring it. The shared↔register operand is 0 today;
// a lower bound on that traffic (the same theorem one level down) is one
// argument away. The tests assert pruning ≤ tight ≤ measured for every
// measurable configuration of every kind.
//
// The theorem evaluation depends on the configuration only through the
// fast-memory size Sb and the tile edge e (the arithmetic floor through e
// alone), so — mirroring the MemoMeasure tile-key machinery — both are
// memoized per (Sb, e) key and a steady-state floor is one map lookup plus
// O(1) launch geometry.

// boundKey is the memo key: the only config axes the theorems see.
type boundKey struct {
	sb, e int
}

// floorTerms are the two row-evaluated operands of a time floor: the
// theorem's minimum off-chip traffic q, in elements, and the arithmetic
// floor of the tunable launch, in flops.
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

// rates selects where Space.floor evaluates the time model.
type rates uint8

const (
	// launchRates are the launch's own: the tight floor (analyticFloor).
	launchRates rates = iota
	// idealRates are the best any launch could have: the pruning floor
	// (BoundSeconds).
	idealRates
	// tileRates bound the launch rates of every thread count of c's tile
	// (memsim.Arch.RatesBound up to the tile's volume, capped at the 1024
	// threads a block may have). The launch builders' Blocks and
	// BandwidthEff read only the tile, Sb and layout, so the result is ≤ the
	// tight floor of each configuration of the tile (Space.minFloor).
	tileRates
)

// floor is the one time floor of c: the time model applied to the row's
// lower bounds on traffic and flops instead of measured counts, at the rates
// m selects. Under idealRates arithmetic joins only where it is the same for
// every configuration (flatArith), so the pruning floor is pointwise ≤ the
// tight one. The result is 0 when no useful bound applies (an empty axis, or
// a configuration the dataflow cannot launch) and +Inf when the block does
// not fit the device at all: its measurement can only fail.
func (sp *Space) floor(c conv.Config, m rates) float64 {
	if m == tileRates {
		c.ThreadsX, c.ThreadsY, c.ThreadsZ = c.TileX, c.TileY, c.TileZ
	}
	if c.TileX < 1 || c.TileY < 1 || c.TileZ < 1 || c.SharedPerBlock < 1 ||
		c.ThreadsX < 1 || c.ThreadsY < 1 || c.ThreadsZ < 1 {
		return 0
	}
	if sp.row.launchable != nil && !sp.row.launchable(sp.Shape, c) {
		return 0
	}
	l := sp.row.launch(sp.Shape, c)
	if l.Blocks < 1 || l.ThreadsPerBlock < 1 {
		return 0
	}
	var r memsim.Rates
	var ok bool
	if m == tileRates {
		l.ThreadsPerBlock = min(l.ThreadsPerBlock, 1024)
		r, ok = sp.Arch.RatesBound(l)
	} else {
		r, ok = sp.Arch.Rates(l)
	}
	if !ok {
		return math.Inf(1)
	}
	ft := sp.floorTerms(c.SharedPerBlock, c.WinogradE)
	if m == idealRates {
		r.Hide, r.Eff = 1, 1
		if !sp.row.flatArith {
			ft.arith = 0
		}
	}
	// Fixed launches are costed exactly and every measurement pays them on
	// top of its tunable launch, so they join the floor as a constant.
	return sp.Arch.Seconds(r, ft.q*4, 0, ft.arith) + sp.fixedSec
}

// BoundSeconds returns a lower bound (in simulated seconds) on what any
// measurement of c can report — the pruning floor — or 0 when no useful
// bound applies. A configuration whose block does not fit the device at all
// gets +Inf: its measurement can only fail.
func (sp *Space) BoundSeconds(c conv.Config) float64 { return sp.floor(c, idealRates) }

// minFloor returns the minimum tight floor over the space's measurable
// configurations when it is below ub, and ub otherwise — the search's
// certificate: an incumbent measured at or below it cannot be beaten by any
// configuration of the space. It returns 0 when a measurable configuration
// has no useful bound (floor 0): nothing can be proven against it.
// Configurations that cannot launch (+Inf) or cannot be measured are
// skipped; measuring them can only fail. With ub = +Inf the result is
// AnalyticTop(1)'s Floor.
//
// It is one pass of enumerateTiles. A tile whose tileRates floor is ≥ the
// running minimum holds no configuration that could lower it and is skipped
// before its thread loops, and inside a kept tile measurable runs only for a
// configuration that would lower it.
func (sp *Space) minFloor(ub float64) float64 {
	low := ub
	sp.enumerateTiles(func(t conv.Config) bool {
		return sp.floor(t, tileRates) < low
	}, func(c conv.Config) bool {
		if f := sp.analyticFloor(c); f < low && sp.measurable(c) {
			low = f
		}
		return low > 0
	})
	return low
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

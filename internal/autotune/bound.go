package autotune

import (
	"cmp"
	"math"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/tensor"
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
	// tight floor of each configuration of the tile (Space.bestFirst).
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
// It is the best-first walk kept to its top 1: it stops at the first tile
// whose bound is ≥ the running minimum, and inside a kept tile measurable
// runs only for a configuration that would lower it.
func (sp *Space) minFloor(ub float64) float64 {
	low := ub
	sp.bestFirst(ub, func(bound float64, _ conv.Config) bool {
		return bound >= low
	}, func(c conv.Config) bool {
		if f := sp.analyticFloor(c); f < low && sp.measurable(c) {
			low = f
		}
		return low > 0
	})
	return low
}

// tileBound is one admissible tile of a best-first walk, its axes packed
// beside its tileRates floor.
type tileBound struct {
	bound       float64
	x, y, z, sb int32
	lay, e      int32
}

func (tb tileBound) config() conv.Config {
	return conv.Config{TileX: int(tb.x), TileY: int(tb.y), TileZ: int(tb.z),
		SharedPerBlock: int(tb.sb), Layout: tensor.Layout(tb.lay), WinogradE: int(tb.e)}
}

// compare orders by bound, then as configLess orders the tiles.
func (tb tileBound) compare(o tileBound) int {
	switch {
	case tb.bound != o.bound:
		return cmp.Compare(tb.bound, o.bound)
	case tb.x != o.x:
		return cmp.Compare(tb.x, o.x)
	case tb.y != o.y:
		return cmp.Compare(tb.y, o.y)
	case tb.z != o.z:
		return cmp.Compare(tb.z, o.z)
	case tb.sb != o.sb:
		return cmp.Compare(tb.sb, o.sb)
	case tb.lay != o.lay:
		return cmp.Compare(tb.lay, o.lay)
	}
	return cmp.Compare(tb.e, o.e)
}

// bestFirst is the floor-ordered walk of the space, the branch and bound
// under minFloor and the analytic scan. One pass over the admissible tiles
// records each tile's floor at tileRates — ≤ the tight floor of every
// configuration of the tile — keeping the tiles whose bound is below ub; it
// then visits the kept tiles' configurations tile by tile, by ascending bound
// and, between equal bounds, in configLess order of the tiles. So no tile
// after one of bound b holds a configuration of tight floor below b, and
// none at b whose tile dims precede its. Before a tile's thread loops cut is
// asked with its bound; returning true ends the walk, as does visit
// returning false.
//
// The walk usually ends long before the last tile, so the tiles are ordered
// lazily: a min-heap on compare hands them out in sorted order for O(n) to
// build plus O(log n) per tile visited, not a full sort's O(n log n).
func (sp *Space) bestFirst(ub float64, cut func(bound float64, t conv.Config) bool, visit func(conv.Config) bool) {
	var tiles []tileBound
	sp.enumerateTiles(func(t conv.Config) bool {
		if b := sp.floor(t, tileRates); b < ub {
			tiles = append(tiles, tileBound{bound: b, x: int32(t.TileX), y: int32(t.TileY), z: int32(t.TileZ),
				sb: int32(t.SharedPerBlock), lay: int32(t.Layout), e: int32(t.WinogradE)})
		}
		return true
	})
	for i := len(tiles)/2 - 1; i >= 0; i-- {
		siftTiles(tiles, i)
	}
	divs := sp.tileDivisors() // for this walk only: see Space.divs
	for len(tiles) > 0 {
		tb := tiles[0]
		t := tb.config()
		if cut(tb.bound, t) || !threadConfigs(divs, t, visit) {
			return
		}
		last := len(tiles) - 1
		tiles[0] = tiles[last]
		tiles = tiles[:last]
		siftTiles(tiles, 0)
	}
}

// siftTiles moves tiles[i] down the min-heap tiles to its place.
func siftTiles(tiles []tileBound, i int) {
	for {
		least := 2*i + 1
		if least >= len(tiles) {
			return
		}
		if r := least + 1; r < len(tiles) && tiles[r].compare(tiles[least]) < 0 {
			least = r
		}
		if tiles[i].compare(tiles[least]) <= 0 {
			return
		}
		tiles[i], tiles[least] = tiles[least], tiles[i]
		i = least
	}
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

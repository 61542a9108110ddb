package autotune

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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
// dataflow using Sb floats of fast memory is at least the theorem's Q(Sb)
// and at least the compulsory traffic C (every output written once, every
// weight and every input some window reads read once, at any stride:
// bounds.CompulsoryTraffic), and its flops
// are at least the kind's arithmetic floor, so
//
//	Seconds(rates; max(Q(Sb), C)·4, 0, arith) + fixed
//
// never exceeds a measurement — and neither does the same expression at
// better rates. (FFT's traffic operand is its phase-3 bound alone, which
// carries its own compulsory term over spectra.) The engine uses it twice (Space.floor): the tight floor at
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
// alone), so both are evaluated once per (Sb, e) pair of the space's axes
// (Space.rowTerms) and a steady-state floor is one slice index plus O(1)
// launch geometry.

// floorTerms are the two row-evaluated operands of a time floor: the
// minimum off-chip traffic q, in elements, and the arithmetic
// floor of the tunable launch, in flops.
type floorTerms struct {
	q, arith float64
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
	// tight floor of each configuration of the tile (Space.bestFirst, which
	// also bounds a group of tiles at these rates: walk.groupFloor).
	tileRates
)

// floor is the one time floor of c: the time model applied to the row's
// lower bounds on traffic and flops instead of measured counts, at the rates
// m selects. Under idealRates arithmetic joins only where it is the same for
// every configuration (flatArith), so the pruning floor is pointwise ≤ the
// tight one. The result is 0 when no useful bound applies (an empty axis, or
// a configuration the dataflow cannot launch) and +Inf when the block does
// not fit the device at all: its measurement can only fail.
func (sp *Space) floor(c conv.Config, m rates) float64 { return sp.floorWith(c, m, nil) }

// floorWith is floor over the row terms *ft — floorTerms of c's (Sb, e), or
// lower ones — or over the space's memoized terms when ft is nil.
func (sp *Space) floorWith(c conv.Config, m rates, ft *floorTerms) float64 {
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
	var t floorTerms
	if ft != nil {
		t = *ft
	} else {
		t = sp.floorTerms(c.SharedPerBlock, c.WinogradE)
	}
	if m == idealRates {
		r.Hide, r.Eff = 1, 1
		if !sp.row.flatArith {
			t.arith = 0
		}
	}
	// Fixed launches are costed exactly and every measurement pays them on
	// top of its tunable launch, so they join the floor as a constant.
	return sp.Arch.Seconds(r, t.q*4, 0, t.arith) + sp.fixedSec
}

// BoundSeconds returns a lower bound (in simulated seconds) on what any
// measurement of c can report — the pruning floor — or 0 when no useful
// bound applies. A configuration whose block does not fit the device at all
// gets +Inf: its measurement can only fail.
func (sp *Space) BoundSeconds(c conv.Config) float64 { return sp.floor(c, idealRates) }

// minFloor returns the minimum tight floor over the space's measurable
// configurations when it is below ub, and ub otherwise. Every stop a search
// takes on a proof reads it through the search's one proof (see proof). It
// returns 0 when a measurable configuration has no useful bound (floor 0):
// nothing can be proven against it. Configurations that cannot launch (+Inf)
// or cannot be measured are skipped; measuring them can only fail. With
// ub = +Inf the result is AnalyticTop(1)'s Floor.
//
// It is the best-first walk kept to its top 1: it stops at the first tile
// whose bound is ≥ the running minimum, and inside a kept tile measurable
// runs only for a configuration that would lower it. The walk bounds a whole
// (x, y, z, e) tile group before its tiles, so a group whose floor is ≥ ub
// is dropped without a floor of any of its tiles.
func (sp *Space) minFloor(ub float64) float64 {
	low := ub
	sp.bestFirst(sp.divisors(), ub, func(bound float64, _ conv.Config) bool {
		return bound >= low
	}, func(c conv.Config) bool {
		if f := sp.analyticFloor(c); f < low && sp.measurable(c) {
			low = f
		}
		return low > 0
	})
	return low
}

// proof is what one search knows of its space's least tight floor m, the
// minFloor(+Inf) over the measurable configurations: m ≥ lo, and m = lo when
// exact; m ≤ hi when hi > 0 (see show). The zero value knows only that
// floors are not negative. Every stop on a proof — the certificate, the gap
// stop and the waiver — asks it, so a scan one stop runs serves the others.
type proof struct {
	lo, hi float64
	exact  bool
}

// show tells the proof of a configuration of sp: a measurable one's tight
// floor is at least m, so it bounds m from above. A search shows its warm
// seeds before its first booking, because the Section-5 seed it books first
// can attain its own floor hundreds of times above m, and a scan cut that
// high walks most of the space only to refute the certificate.
func (p *proof) show(sp *Space, c conv.Config) {
	if !sp.measurable(c) {
		return
	}
	if f := sp.analyticFloor(c); f > 0 && (p.hi == 0 || f < p.hi) {
		p.hi = f
	}
}

// atLeast reports whether every measurable tight floor of sp is at least x,
// that is x ≤ m. It scans only when x is above an inexact lo and not above
// hi, and cuts that scan at x: a scan that finds a floor below x has found
// m, one that finds none raises lo to x.
func (p *proof) atLeast(sp *Space, x float64) bool {
	if x <= p.lo || p.exact {
		return x <= p.lo
	}
	if p.hi > 0 && x > p.hi {
		return false
	}
	if f := sp.minFloor(x); f < x {
		p.lo, p.exact = f, true
		return false
	}
	p.lo = x
	return true
}

// tileBound is one entry of a best-first walk, its axes packed beside its
// bound: an admissible tile at its tileRates floor, or, when n > 0, a group
// not yet expanded — the tiles (x, y, z, e) at the space's n largest Sb values
// and every layout — at its groupFloor. The fields are cachedConfig's widths
// (an admissible tile dim is at most Sb); n is at most len(sbs).
type tileBound struct {
	bound       float64
	x, y, z, sb int16
	lay, e, n   int8
}

func (tb tileBound) config() conv.Config {
	return conv.Config{TileX: int(tb.x), TileY: int(tb.y), TileZ: int(tb.z),
		SharedPerBlock: int(tb.sb), Layout: tensor.Layout(tb.lay), WinogradE: int(tb.e)}
}

// compare orders by bound, then a group before the tiles of its bound, then
// as configLess orders the tiles.
func (tb tileBound) compare(o tileBound) int {
	switch {
	case tb.bound != o.bound:
		return cmp.Compare(tb.bound, o.bound)
	case tb.n != o.n:
		return cmp.Compare(o.n, tb.n)
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
// under minFloor and the analytic scan. It visits the admissible tiles whose
// tileRates floor — ≤ the tight floor of every configuration of the tile —
// is below ub, tile by tile, by ascending bound and, between equal bounds, in
// configLess order of the tiles. So no tile after one of bound b holds a
// configuration of tight floor below b, and none at b whose tile dims
// precede its. Before a tile's thread loops cut is asked with its bound;
// returning true ends the walk, as does visit returning false.
//
// The walk usually ends long before the last tile, so it bounds in two
// levels. A group is one (x, y, z, e) tile at all its admissible Sb values
// and layouts; one pass over the groups records each group's floor, ≤ every
// member tile's bound, and drops the groups at or above ub. A min-heap on
// compare holds the groups and the tiles of the groups expanded so far: a
// group is expanded into its tiles' bounds when it reaches the head, which
// it does before any tile of its bound, so a tile is visited only when it is
// strictly below every group still closed. The tiles thus come out in the
// order that flooring every tile and sorting would give, while only the
// groups the walk reaches have their tiles floored. divs is the caller's
// tileDivisors, the thread-count choices of the visited tiles.
func (sp *Space) bestFirst(divs map[int][]int, ub float64, cut func(bound float64, t conv.Config) bool, visit func(conv.Config) bool) {
	w := sp.newWalk(ub)
	defer w.release()
	w.groups()
	w.run(divs, cut, visit)
}

// run pops the heap to its end: a group is expanded into its tiles, and a
// tile is handed to cut with its bound and then, unless visit is nil, its
// configurations to visit (threadConfigs over divs). cut returning true ends
// the run, as does visit returning false.
func (w *walk) run(divs map[int][]int, cut func(bound float64, t conv.Config) bool, visit func(conv.Config) bool) {
	for len(w.heap) > 0 {
		tb := w.pop()
		if tb.n > 0 {
			w.expand(tb)
			continue
		}
		t := tb.config()
		if cut(tb.bound, t) || visit != nil && !threadConfigs(divs, t, visit) {
			return
		}
	}
}

// walkHeaps recycles the walks' heaps. A walk owns its heap from its start
// to its end — the analytic tier fans scans of one space across goroutines,
// so a heap cannot live on the space — and hands it back if it holds at
// most walkHeapCap entries (12 KiB; the analytic scans' reach 2 048,
// 48 KiB). It keeps at most walkHeapsKept of them. A free list and not a
// sync.Pool: a race-enabled build's Pool drops a quarter of what it is
// handed at random, which made a search's allocations a draw.
var walkHeaps struct {
	sync.Mutex
	free [][]tileBound
}

const (
	walkHeapCap   = 512
	walkHeapsKept = 8
)

// walk is one best-first walk and its heap.
type walk struct {
	sp   *Space
	ub   float64
	heap []tileBound
}

// newWalk starts a walk below ub on a recycled, empty heap.
func (sp *Space) newWalk(ub float64) walk {
	var heap []tileBound
	walkHeaps.Lock()
	if n := len(walkHeaps.free); n > 0 {
		heap = walkHeaps.free[n-1]
		walkHeaps.free = walkHeaps.free[:n-1]
	}
	walkHeaps.Unlock()
	return walk{sp: sp, ub: ub, heap: heap[:0]}
}

// release hands the walk's heap back, unless it grew past walkHeapCap.
func (w *walk) release() {
	if cap(w.heap) > walkHeapCap {
		return
	}
	walkHeaps.Lock()
	if len(walkHeaps.free) < walkHeapsKept {
		walkHeaps.free = append(walkHeaps.free, w.heap[:0])
	}
	walkHeaps.Unlock()
}

// groups fills the heap, as a min-heap on compare, with the groups whose
// floor is below ub. A tile's admissible z values are a prefix of zs
// (ascending): every constraint of tileAdmissible tightens with z, so the
// loop stops at the first inadmissible one.
func (w *walk) groups() {
	sp := w.sp
	for ei, e := range sp.row.edges {
		for _, x := range sp.xsByE[e] {
			for _, y := range sp.ysByE[e] {
				for _, z := range sp.zs {
					g := w.group(ei, x, y, z)
					if g.n == 0 {
						break
					}
					if g.bound < w.ub {
						w.heap = append(w.heap, g)
					}
				}
			}
		}
	}
	for i := len(w.heap)/2 - 1; i >= 0; i-- {
		siftTiles(w.heap, i)
	}
}

// group is the group of tile (x, y, z) at edge index ei at its floor; its
// Sb values are a prefix of sbs (descending: every constraint of
// tileAdmissible loosens with Sb), and n is 0 where none admits the tile.
func (w *walk) group(ei, x, y, z int) tileBound {
	sp := w.sp
	e := sp.row.edges[ei]
	t := conv.Config{TileX: x, TileY: y, TileZ: z, Layout: sp.row.layouts[0], WinogradE: e}
	n := 0
	for _, sb := range sp.sbs {
		if t.SharedPerBlock = sb; !sp.tileAdmissible(t) {
			break
		}
		n++
	}
	g := tileBound{x: int16(x), y: int16(y), z: int16(z), e: int8(e), n: int8(n)}
	if n > 0 {
		g.bound = w.groupFloor(t, ei, n)
	}
	return g
}

// edgeTerms is the space's row terms of tile edge index ei, by Sb index.
func (sp *Space) edgeTerms(ei int) []floorTerms {
	n := len(sp.sbs)
	return sp.rowTerms()[ei*n : (ei+1)*n]
}

// groupFloor is the floor of the group of tile t (edge index ei, Sb over
// sbs[:n]): the least, over the row's layouts, of the tile's floor at its
// smallest Sb, where the most blocks are resident (the least Sched, the
// highest Hide), over the least traffic bound of its Sb values. The launch
// builders' Blocks and launchable read only the tile, so this is ≤ the
// tileRates floor of every member tile.
func (w *walk) groupFloor(t conv.Config, ei, n int) float64 {
	terms := w.sp.edgeTerms(ei)
	ft := terms[0]
	for _, o := range terms[1:n] {
		ft.q = min(ft.q, o.q)
	}
	t.SharedPerBlock = w.sp.sbs[n-1]
	b := math.Inf(1)
	for _, lay := range w.sp.row.layouts {
		t.Layout = lay
		b = min(b, w.sp.floorWith(t, tileRates, &ft))
	}
	return b
}

// expand pushes the tiles of group g whose tileRates floor is below ub.
func (w *walk) expand(g tileBound) {
	sp := w.sp
	ei := slices.Index(sp.row.edges, int(g.e))
	t := g.config()
	for si, sb := range sp.sbs[:g.n] {
		t.SharedPerBlock = sb
		ft := &sp.edgeTerms(ei)[si]
		for _, lay := range sp.row.layouts {
			t.Layout = lay
			if b := sp.floorWith(t, tileRates, ft); b < w.ub {
				w.heap = append(w.heap, tileBound{bound: b, x: g.x, y: g.y, z: g.z, sb: int16(sb), lay: int8(lay), e: g.e})
				w.up(len(w.heap) - 1)
			}
		}
	}
}

// pop removes and returns the head of the heap.
func (w *walk) pop() tileBound {
	top, last := w.heap[0], len(w.heap)-1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	siftTiles(w.heap, 0)
	return top
}

// up moves heap[i] up the min-heap to its place.
func (w *walk) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if w.heap[parent].compare(w.heap[i]) <= 0 {
			return
		}
		w.heap[parent], w.heap[i] = w.heap[i], w.heap[parent]
		i = parent
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

// floorTerms returns the row terms for fast memory sb and tile edge e: the
// kind's traffic lower bound (Theorem 4.12 / 4.20 or the compulsory
// traffic, whichever is larger, or the FFT composite) and its arithmetic
// floor. A pair off the space's axes is evaluated on the spot.
func (sp *Space) floorTerms(sb, e int) floorTerms {
	si := bits.Len(uint(sp.sbs[0])) - bits.Len(uint(sb)) // sbs halves from sbs[0]
	if ei := slices.Index(sp.row.edges, e); ei >= 0 && si >= 0 && si < len(sp.sbs) && sp.sbs[si] == sb {
		return sp.edgeTerms(ei)[si]
	}
	return floorTerms{q: sp.row.lowerBound(sp.Shape, e, sb), arith: sp.row.arith(sp.Shape, e)}
}

// rowTerms is the row terms of every (tile edge, Sb) pair of the space's
// axes, len(sbs) per edge in the row's order, evaluated on the first call.
// Safe for concurrent use: a Space may be shared by concurrent tuning runs
// (TuneNetwork's layer workers, tests under -race).
func (sp *Space) rowTerms() []floorTerms {
	sp.termsOnce.Do(func() {
		sp.terms = make([]floorTerms, 0, len(sp.row.edges)*len(sp.sbs))
		for _, e := range sp.row.edges {
			for _, sb := range sp.sbs {
				sp.terms = append(sp.terms, floorTerms{q: sp.row.lowerBound(sp.Shape, e, sb), arith: sp.row.arith(sp.Shape, e)})
			}
		}
	})
	return sp.terms
}

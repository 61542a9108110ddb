// Package autotune implements the paper's auto-tuning engine (Section 6):
// a configuration search space built from Table 1 — optionally pruned by the
// I/O optimality condition x·y = R·z — a gradient-boosted-tree cost model
// trained online from measurements, and a configuration explorer running
// parallel model-guided random walks. Simulated annealing, genetic and
// random searchers over the unpruned space stand in for TVM's tuners, as in
// Figure 11 and Table 2.
//
// Beyond the paper's single-layer loop, the package scales the engine the
// way production auto-tuners do: a worker-pool measurement executor fans
// each candidate batch across goroutines while keeping runs bit-identical
// for any worker count (executor.go), TuneNetwork tunes every layer of a
// CNN concurrently (network.go), and a sharded Cache persists verdicts per
// (arch, algorithm, shape) key and deduplicates concurrent searches of
// identical keys (cache.go).
package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// Space is the configuration space of Table 1 for one layer on one
// architecture. Axes: output tile x, y, z (factors of the output dims),
// thread counts (factors of the tile dims), shared memory per block
// (power-of-two fractions of the SM), and layout. With Pruned, the paper's
// searching domain constraints are applied: x·y·z ≤ Sb together with
// z ≤ sqrt(Sb/R) and x·y ≤ sqrt(Sb·R) (the optimality condition), plus the
// template's shared-memory fit.
type Space struct {
	Shape shapes.ConvShape
	Arch  memsim.Arch
	Kind  Kind
	// Pruned enables the optimality-condition searching domain.
	Pruned bool

	// row is the kind's row of kindTable, resolved once: everything below
	// that depends on the dataflow reads it. reuse is the row's R for this
	// shape (the shape's own R where the row has none: the cost model still
	// takes it as a feature).
	row   *kindSpec
	reuse float64

	// The x/y tile axes per tile edge (the row's edges), the channel tile
	// and the shared-memory sizes; the layout axis is the row's.
	xsByE map[int][]int
	ysByE map[int][]int
	zs    []int
	sbs   []int
	// divs is tileDivisors(), kept from the first walk step or sample on: a
	// search asks for a tile's thread-count choices hundreds of times per
	// batch. A space that only answers analytic scans never builds it.
	divOnce sync.Once
	divs    map[int][]int

	// terms holds the floor terms per (e, Sb) of the axes for every floor
	// (bound.go's rowTerms), evaluated once under termsOnce. fixedSec is
	// the row's fixed-launch cost for this (arch, shape): every bound and
	// floor adds it as a constant. sizeOnce guards the cached
	// admissible-config count.
	termsOnce sync.Once
	terms     []floorTerms
	fixedSec  float64
	sizeOnce  sync.Once
	size      int64

	// anOnce guards the memoized analytic scan (analytic.go): the
	// analyticTopCap best measurable configs by bound floor, and the scan's
	// error when nothing ranked; the scan sets anDone last.
	anOnce sync.Once
	anDone atomic.Bool
	anTop  []scored
	anErr  error
}

// NewSpace builds the space for a layer. The axes come from the kind's row
// (kinds.go): tile edges, the plane the x/y tiles divide, layouts. e is
// ignored — the tile edge is an axis of the space, not a parameter — and
// stays in the signature only for callers compiled against it.
func NewSpace(s shapes.ConvShape, arch memsim.Arch, kind Kind, e int, pruned bool) (*Space, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	row := kind.spec()
	if row.admits != nil {
		if err := row.admits(s); err != nil {
			return nil, err
		}
	}
	sp := &Space{Shape: s, Arch: arch, Kind: kind, Pruned: pruned,
		row: row, reuse: s.R()}
	if row.reuse != nil {
		sp.reuse = row.reuse(s)
	}
	if row.fixed != nil {
		sp.fixedSec = row.fixed(arch, s)
	}
	sp.xsByE = make(map[int][]int)
	sp.ysByE = make(map[int][]int)
	h, w := row.plane(s)
	for _, edge := range row.edges {
		sp.xsByE[edge], sp.ysByE[edge] = tileAxis(w, edge), tileAxis(h, edge)
	}
	// The z tile spans one group's output channels (all of Cout when G=1):
	// grouped blocks never straddle a group boundary.
	sp.zs = factors(s.Cout / s.G())
	for sb := arch.MaxSharedPerBlock(); sb >= 256; sb /= 2 {
		sp.sbs = append(sp.sbs, sb)
	}
	return sp, nil
}

// tileDivisors maps every tile size on the x/y/z axes to its divisors,
// ascending — the thread-count choices for that tile.
func (sp *Space) tileDivisors() map[int][]int {
	divs := make(map[int][]int)
	for _, edge := range sp.row.edges {
		for _, axis := range [][]int{sp.xsByE[edge], sp.ysByE[edge], sp.zs} {
			for _, tile := range axis {
				if _, ok := divs[tile]; !ok {
					divs[tile] = factors(tile)
				}
			}
		}
	}
	return divs
}

// divisors is the space's tileDivisors, built on the first call.
func (sp *Space) divisors() map[int][]int {
	sp.divOnce.Do(func() { sp.divs = sp.tileDivisors() })
	return sp.divs
}

// factors is factors(tile) from the space's own table. The slice is shared:
// callers only read it. A size off the axes (a caller's own config handed to
// Neighbor) is computed on the spot.
func (sp *Space) factors(tile int) []int {
	if fs, ok := sp.divisors()[tile]; ok {
		return fs
	}
	return factors(tile)
}

// tileAxis lists the tile sizes along a plane extent: its divisors, or —
// for a dataflow with sub-tile edge e — e times the divisors of the
// rounded-up sub-tile grid.
func tileAxis(extent, e int) []int {
	if e == 0 {
		return factors(extent)
	}
	return scaleAll(factors((extent+e-1)/e), e)
}

// admissible reports whether a full config belongs to the space, applying
// the Table 1 constraints (and the pruned searching-domain constraints when
// enabled).
func (sp *Space) admissible(c conv.Config) bool {
	return c.Threads() <= 1024 && sp.tileAdmissible(c)
}

// tileAdmissible is admissible without the thread-count limit: every other
// constraint reads only the tile, Sb, e and layout (no row's sharedNeed reads
// the thread counts), so enumerate asks it once per tile.
func (sp *Space) tileAdmissible(c conv.Config) bool {
	vol := c.TileX * c.TileY * c.TileZ
	if vol > c.SharedPerBlock {
		return false
	}
	if !sp.Pruned {
		return true
	}
	if sp.row.reuse != nil {
		// The optimality condition applies only to a tile with sliding-window
		// reuse; without one the searching domain is just the shared fit.
		r := sp.reuse
		sb := float64(c.SharedPerBlock)
		if float64(c.TileZ) > math.Sqrt(sb/r)+1e-9 {
			return false
		}
		if float64(c.TileX*c.TileY) > math.Sqrt(sb*r)+1e-9 {
			return false
		}
	}
	// The staged tiles must actually fit the shared allocation.
	return sp.row.sharedNeed(sp.Shape, c) <= c.SharedPerBlock
}

// Size counts the admissible configurations. The count is computed by
// enumeration once and cached — the axes of a Space never change after
// NewSpace — so repeated calls (per-row reporting, sampling fallbacks) do
// not re-walk the space. Safe for concurrent use.
func (sp *Space) Size() int64 {
	sp.sizeOnce.Do(func() {
		sp.enumerate(func(conv.Config) bool { sp.size++; return true })
	})
	return sp.size
}

// enumerate visits every admissible config; the visitor returns false to
// stop early.
func (sp *Space) enumerate(visit func(conv.Config) bool) {
	divs := sp.tileDivisors() // for this walk only: see Space.divs
	sp.enumerateTiles(func(t conv.Config) bool { return threadConfigs(divs, t, visit) })
}

// enumerateTiles is the space's loop nest over tiles: it visits each
// admissible tile — a config with its thread counts unset — in enumeration
// order; the visitor returns false to stop early.
func (sp *Space) enumerateTiles(visit func(conv.Config) bool) {
	for _, e := range sp.row.edges {
		for _, x := range sp.xsByE[e] {
			for _, y := range sp.ysByE[e] {
				for _, z := range sp.zs {
					for _, sb := range sp.sbs {
						for _, lay := range sp.row.layouts {
							t := conv.Config{TileX: x, TileY: y, TileZ: z,
								SharedPerBlock: sb, Layout: lay, WinogradE: e}
							if sp.tileAdmissible(t) && !visit(t) {
								return
							}
						}
					}
				}
			}
		}
	}
}

// threadConfigs visits the admissible configurations of tile t: its thread
// counts, divisors of the tile dims (divs is tileDivisors), within the
// thread-count limit — the only constraint tileAdmissible leaves. It reports
// false when visit stopped the walk.
func threadConfigs(divs map[int][]int, t conv.Config, visit func(conv.Config) bool) bool {
	for _, tx := range divs[t.TileX] {
		for _, ty := range divs[t.TileY] {
			for _, tz := range divs[t.TileZ] {
				c := t
				c.ThreadsX, c.ThreadsY, c.ThreadsZ = tx, ty, tz
				if c.Threads() <= 1024 && !visit(c) {
					return false
				}
			}
		}
	}
	return true
}

// Sample draws a uniform-ish random admissible config (rejection sampling
// over the axes; falls back to enumeration if rejection keeps missing).
func (sp *Space) Sample(rng *rand.Rand) conv.Config {
	for attempt := 0; attempt < 256; attempt++ {
		c := sp.randomConfig(rng)
		if sp.admissible(c) {
			return c
		}
	}
	// Dense fallback: draw a uniform index into the enumeration. The cached
	// Size both prices the draw (the walk stops at the drawn index instead
	// of visiting every config for a reservoir) and powers the diagnostic
	// when rejection failed because the space is empty.
	n := sp.Size()
	if n == 0 {
		panic(fmt.Sprintf("autotune: empty search space for %v (size=0 after 256 rejected samples)", sp.Shape))
	}
	target := rng.Int63n(n)
	var chosen conv.Config
	var i int64
	sp.enumerate(func(c conv.Config) bool {
		if i == target {
			chosen = c
			return false
		}
		i++
		return true
	})
	return chosen
}

func (sp *Space) randomConfig(rng *rand.Rand) conv.Config {
	e := sp.row.edges[rng.Intn(len(sp.row.edges))]
	xs, ys := sp.xsByE[e], sp.ysByE[e]
	x := xs[rng.Intn(len(xs))]
	y := ys[rng.Intn(len(ys))]
	z := sp.zs[rng.Intn(len(sp.zs))]
	fx, fy, fz := sp.factors(x), sp.factors(y), sp.factors(z)
	return conv.Config{
		TileX: x, TileY: y, TileZ: z,
		ThreadsX: fx[rng.Intn(len(fx))], ThreadsY: fy[rng.Intn(len(fy))], ThreadsZ: fz[rng.Intn(len(fz))],
		SharedPerBlock: sp.sbs[rng.Intn(len(sp.sbs))],
		Layout:         sp.row.layouts[rng.Intn(len(sp.row.layouts))],
		WinogradE:      e,
	}
}

// Neighbor mutates one axis of a config to an adjacent admissible choice —
// the random-walk step of the configuration explorer.
func (sp *Space) Neighbor(c conv.Config, rng *rand.Rand) conv.Config {
	for attempt := 0; attempt < 64; attempt++ {
		n := c
		moves := 8
		if len(sp.row.edges) > 1 {
			moves = 9
		}
		switch rng.Intn(moves) {
		case 0:
			n.TileX = adjacent(sp.xsByE[n.WinogradE], n.TileX, rng)
			n.ThreadsX = sp.clampFactor(n.ThreadsX, n.TileX)
		case 1:
			n.TileY = adjacent(sp.ysByE[n.WinogradE], n.TileY, rng)
			n.ThreadsY = sp.clampFactor(n.ThreadsY, n.TileY)
		case 2:
			n.TileZ = adjacent(sp.zs, n.TileZ, rng)
			n.ThreadsZ = sp.clampFactor(n.ThreadsZ, n.TileZ)
		case 3:
			n.ThreadsX = adjacent(sp.factors(n.TileX), n.ThreadsX, rng)
		case 4:
			n.ThreadsY = adjacent(sp.factors(n.TileY), n.ThreadsY, rng)
		case 5:
			n.ThreadsZ = adjacent(sp.factors(n.TileZ), n.ThreadsZ, rng)
		case 6:
			n.SharedPerBlock = adjacent(sp.sbs, n.SharedPerBlock, rng)
		case 7:
			n.Layout = sp.row.layouts[rng.Intn(len(sp.row.layouts))]
		case 8:
			// Switch the Winograd tile edge, snapping the spatial tiles to
			// the new grid.
			n.WinogradE = adjacent(sp.row.edges, n.WinogradE, rng)
			n.TileX = nearest(sp.xsByE[n.WinogradE], n.TileX)
			n.TileY = nearest(sp.ysByE[n.WinogradE], n.TileY)
			n.ThreadsX = sp.clampFactor(n.ThreadsX, n.TileX)
			n.ThreadsY = sp.clampFactor(n.ThreadsY, n.TileY)
		}
		if n != c && sp.admissible(n) {
			return n
		}
	}
	return c
}

// SeedConfigs returns the coarse-grained Section 5 dataflow designs snapped
// into this space's axes — the starting points of the paper's engine (the
// fine-grained tuner refines the dataflow design, it does not replace it).
func (sp *Space) SeedConfigs() []conv.Config {
	var seeds []conv.Config
	for _, e := range sp.row.edges {
		def := sp.row.design(sp.Arch, sp.Shape, e)
		def.WinogradE = e
		if snapped, ok := sp.snap(def); ok {
			seeds = append(seeds, snapped)
		}
	}
	return seeds
}

// Snap moves a configuration onto this space's axes, shrinking tiles until
// it is admissible; ok is false if no admissible snap exists. Cross-layer
// warm seeds go through it: an incumbent tuned for one layer's axes lands
// on the nearest admissible point of another layer's space.
func (sp *Space) Snap(c conv.Config) (conv.Config, bool) { return sp.snap(c) }

// snap moves a config onto the space's axes, shrinking its largest tile axis
// above that axis's minimum until it is admissible. ok is false if it is
// not admissible with every tile axis at its minimum.
func (sp *Space) snap(c conv.Config) (conv.Config, bool) {
	c.TileX = nearest(sp.xsByE[c.WinogradE], c.TileX)
	c.TileY = nearest(sp.ysByE[c.WinogradE], c.TileY)
	c.TileZ = nearest(sp.zs, c.TileZ)
	c.SharedPerBlock = nearest(sp.sbs, c.SharedPerBlock)
	c.ThreadsX = sp.clampFactor(c.ThreadsX, c.TileX)
	c.ThreadsY = sp.clampFactor(c.ThreadsY, c.TileY)
	c.ThreadsZ = sp.clampFactor(c.ThreadsZ, c.TileZ)
	for !sp.admissible(c) {
		// Shrink the largest tile axis above its minimum and retry; fail
		// once every axis sits at its minimum.
		xs, ys := sp.xsByE[c.WinogradE], sp.ysByE[c.WinogradE]
		x, y, z := c.TileX > xs[0], c.TileY > ys[0], c.TileZ > sp.zs[0]
		switch {
		case z && (c.TileZ >= c.TileX*c.TileY || !x && !y):
			c.TileZ = below(sp.zs, c.TileZ)
			c.ThreadsZ = sp.clampFactor(c.ThreadsZ, c.TileZ)
		case x && (c.TileX >= c.TileY || !y):
			c.TileX = below(xs, c.TileX)
			c.ThreadsX = sp.clampFactor(c.ThreadsX, c.TileX)
		case y:
			c.TileY = below(ys, c.TileY)
			c.ThreadsY = sp.clampFactor(c.ThreadsY, c.TileY)
		default:
			return c, false
		}
	}
	return c, true
}

// below returns the largest value of the ascending vals strictly below v,
// which must exceed vals[0].
func below(vals []int, v int) int {
	i, _ := slices.BinarySearch(vals, v)
	return vals[i-1]
}

// nearest returns the value of vals closest to v.
func nearest(vals []int, v int) int {
	best, bestD := vals[0], 1<<62
	for _, x := range vals {
		d := x - v
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = x, d
		}
	}
	return best
}

// adjacent picks the previous or next value of v in vals (which need not be
// sorted; position is by identity).
func adjacent(vals []int, v int, rng *rand.Rand) int {
	idx := 0
	for i, x := range vals {
		if x == v {
			idx = i
			break
		}
	}
	delta := 1
	if rng.Intn(2) == 0 {
		delta = -1
	}
	idx += delta
	if idx < 0 {
		idx = len(vals) - 1
	}
	if idx >= len(vals) {
		idx = 0
	}
	return vals[idx]
}

func (sp *Space) clampFactor(t, tile int) int {
	if t <= tile && tile%t == 0 {
		return t
	}
	fs := sp.factors(tile)
	best := fs[0]
	for _, f := range fs {
		if f <= t {
			best = f
		}
	}
	return best
}

func factors(n int) []int {
	var fs []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			fs = append(fs, d)
		}
	}
	return fs
}

func scaleAll(vals []int, e int) []int {
	out := make([]int, len(vals))
	for i, v := range vals {
		out[i] = v * e
	}
	return out
}

package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// flatBestFirst is the one-level walk that Space.bestFirst refines, kept as
// its reference: the tileRates floor of every admissible tile first, then the
// tiles below ub by compare off a min-heap.
func flatBestFirst(sp *Space, ub float64, cut func(bound float64, t conv.Config) bool, visit func(conv.Config) bool) {
	var tiles []tileBound
	sp.enumerateTiles(func(t conv.Config) bool {
		if b := sp.floor(t, tileRates); b < ub {
			tiles = append(tiles, tileBound{bound: b, x: int16(t.TileX), y: int16(t.TileY), z: int16(t.TileZ),
				sb: int16(t.SharedPerBlock), lay: int8(t.Layout), e: int8(t.WinogradE)})
		}
		return true
	})
	for i := len(tiles)/2 - 1; i >= 0; i-- {
		siftTiles(tiles, i)
	}
	divs := sp.tileDivisors()
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

// walkFunc is a best-first walk: Space.bestFirst or flatBestFirst.
type walkFunc func(sp *Space, ub float64, cut func(bound float64, t conv.Config) bool, visit func(conv.Config) bool)

// walkStep is one call a walk made: cut with a tile and its bound (cut true),
// or visit with a configuration.
type walkStep struct {
	cut   bool
	bound uint64
	c     conv.Config
}

// walkCut names the callbacks a recorded walk runs under.
type walkCut int

const (
	scanCut     walkCut = iota // the analytic scan's
	minFloorCut                // minFloor's
	neverCut                   // a cut that never fires, visiting every tile below ub
)

// recordWalk runs walk on sp under the callbacks named by how and returns
// the calls it made, in order.
func recordWalk(walk walkFunc, sp *Space, ub float64, how walkCut) []walkStep {
	var steps []walkStep
	var top bestK
	top.reset(analyticTopCap)
	low := ub
	walk(sp, ub, func(bound float64, t conv.Config) bool {
		steps = append(steps, walkStep{cut: true, bound: math.Float64bits(bound), c: t})
		switch how {
		case scanCut:
			if !top.full() {
				return false
			}
			w := top.items[0]
			return bound > w.cost || bound == w.cost && tileDimsAfter(t, w.cfg)
		case minFloorCut:
			return bound >= low
		}
		return false
	}, func(c conv.Config) bool {
		steps = append(steps, walkStep{c: c})
		switch how {
		case scanCut:
			s := scored{cfg: c, cost: sp.analyticFloor(c)}
			if s.cost > 0 && !math.IsInf(s.cost, 1) && top.admits(s) && sp.measurable(c) {
				top.push(s)
			}
		case minFloorCut:
			if f := sp.analyticFloor(c); f < low && sp.measurable(c) {
				low = f
			}
			return low > 0
		}
		return true
	})
	return steps
}

// walkSpaces are seeded random small spaces of every kind that admits them
// on V100, GTX1080Ti and GFX906, pruned and not.
func walkSpaces(t *testing.T, seed int64, shapesPerArch int) []*Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sps []*Space
	for _, a := range []memsim.Arch{memsim.V100, memsim.GTX1080Ti, memsim.GFX906} {
		for i := 0; i < shapesPerArch; i++ {
			s := randomSmallShape(rng)
			if i%3 == 2 {
				s = randomGroupedShape(rng)
			}
			for _, kind := range Kinds {
				for _, pruned := range []bool{true, false} {
					if sp, err := NewSpace(s, a, kind, 0, pruned); err == nil {
						sps = append(sps, sp)
					}
				}
			}
		}
	}
	return sps
}

// The two-level walk hands cut and visit exactly the calls the flat walk
// does — the same tiles at the same bounds, bit for bit, and the same
// configurations, in the same order — under the analytic scan's cut,
// minFloor's and one that never fires, at ub = +Inf, the space's least
// floor, and that floor times and over 1.3. Two ResNet-18 layers add spaces
// of realistic size under the scan's and minFloor's cuts.
func TestBestFirstMatchesFlatWalk(t *testing.T) {
	type walkCase struct {
		sp   *Space
		cuts []walkCut
	}
	var cases []walkCase
	for _, sp := range walkSpaces(t, 97, 6) {
		cases = append(cases, walkCase{sp, []walkCut{scanCut, minFloorCut, neverCut}})
	}
	for _, l := range resnet18Layers()[1:3] {
		for _, kind := range Kinds {
			if sp, err := NewSpace(l.Shape, memsim.V100, kind, 0, true); err == nil {
				cases = append(cases, walkCase{sp, []walkCut{scanCut, minFloorCut}})
			}
		}
	}
	steps := 0
	for _, wc := range cases {
		sp := wc.sp
		least := sp.minFloor(math.Inf(1))
		for _, ub := range []float64{math.Inf(1), least, least * 1.3, least / 1.3} {
			for _, how := range wc.cuts {
				want := recordWalk(flatBestFirst, sp, ub, how)
				got := recordWalk((*Space).bestFirst, sp, ub, how)
				steps += len(want)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s %v %s pruned=%v ub=%v cut %d: step %d of %d/%d: two-level %s, flat %s",
						sp.Arch.Name, sp.Shape, sp.Kind, sp.Pruned, ub, how, i, len(got), len(want),
						stepAt(got, i), stepAt(want, i))
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("no walk made a call: the property is vacuous")
	}
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff(a, b []walkStep) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func stepAt(s []walkStep, i int) string {
	switch {
	case i >= len(s):
		return "ended"
	case s[i].cut:
		return fmt.Sprintf("cut %v at %v", s[i].c, math.Float64frombits(s[i].bound))
	}
	return fmt.Sprintf("visit %v", s[i].c)
}

// A group's floor is ≤ the tileRates floor of every member tile, its Sb
// values are exactly its tiles', and a group the walk drops at ub = +Inf
// holds only tiles of floor +Inf.
func TestGroupFloorIsAFloor(t *testing.T) {
	type groupKey struct {
		x, y, z int16
		e       int8
	}
	sps := walkSpaces(t, 101, 6)
	for _, l := range resnet18Layers()[:5] {
		for _, kind := range Kinds {
			if sp, err := NewSpace(l.Shape, memsim.GFX906, kind, 0, true); err == nil {
				sps = append(sps, sp)
			}
		}
	}
	checked := 0
	for _, sp := range sps {
		w := walk{sp: sp, ub: math.Inf(1)}
		w.groups()
		groups := make(map[groupKey]tileBound, len(w.heap))
		for _, g := range w.heap {
			groups[groupKey{g.x, g.y, g.z, g.e}] = g
		}
		sp.enumerateTiles(func(c conv.Config) bool {
			f := sp.floor(c, tileRates)
			g, ok := groups[groupKey{int16(c.TileX), int16(c.TileY), int16(c.TileZ), int8(c.WinogradE)}]
			switch {
			case !ok && !math.IsInf(f, 1):
				t.Fatalf("%s %v %s: tile %v of floor %v in no group", sp.Arch.Name, sp.Shape, sp.Kind, c, f)
			case ok && g.bound > f:
				t.Fatalf("%s %v %s: group floor %v > tile floor %v of %v", sp.Arch.Name, sp.Shape, sp.Kind, g.bound, f, c)
			case ok && c.SharedPerBlock < sp.sbs[g.n-1]:
				t.Fatalf("%s %v %s: tile %v below its group's %d Sb values", sp.Arch.Name, sp.Shape, sp.Kind, c, g.n)
			}
			checked++
			return true
		})
		for _, g := range groups {
			c := g.config()
			c.SharedPerBlock = sp.sbs[g.n-1]
			if !sp.tileAdmissible(c) {
				t.Fatalf("%s %v %s: group %v holds an inadmissible Sb", sp.Arch.Name, sp.Shape, sp.Kind, c)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tile checked: the property is vacuous")
	}
}

// Admissibility is monotone along the two axes the group loops stop early
// on: a tile admissible at some Sb is admissible at every larger one, and one
// admissible at some channel tile z is admissible at every smaller one. It
// does not depend on the layout.
func TestTileAdmissibleMonotone(t *testing.T) {
	sps := walkSpaces(t, 103, 8)
	for _, l := range resnet18Layers() {
		for _, kind := range Kinds {
			if sp, err := NewSpace(l.Shape, memsim.V100, kind, 0, true); err == nil {
				sps = append(sps, sp)
			}
		}
	}
	admitted := 0
	for _, sp := range sps {
		if !slices.IsSorted(sp.zs) || !slices.IsSortedFunc(sp.sbs, func(a, b int) int { return b - a }) {
			t.Fatalf("%v %s: zs %v ascending, sbs %v descending expected", sp.Shape, sp.Kind, sp.zs, sp.sbs)
		}
		for _, e := range sp.row.edges {
			for _, x := range sp.xsByE[e] {
				for _, y := range sp.ysByE[e] {
					for zi, z := range sp.zs {
						for si, sb := range sp.sbs {
							c := conv.Config{TileX: x, TileY: y, TileZ: z, SharedPerBlock: sb, Layout: sp.row.layouts[0], WinogradE: e}
							ok := sp.tileAdmissible(c)
							for _, lay := range sp.row.layouts[1:] {
								if c.Layout = lay; sp.tileAdmissible(c) != ok {
									t.Fatalf("%v %s pruned=%v: %v admissible %v at another layout", sp.Shape, sp.Kind, sp.Pruned, c, ok)
								}
							}
							if !ok {
								continue
							}
							admitted++
							c.Layout = sp.row.layouts[0]
							if si > 0 {
								if c.SharedPerBlock = sp.sbs[si-1]; !sp.tileAdmissible(c) {
									t.Fatalf("%v %s pruned=%v: Sb %d admits %v, larger does not", sp.Shape, sp.Kind, sp.Pruned, sb, c)
								}
							}
							if zi > 0 {
								c.SharedPerBlock, c.TileZ = sb, sp.zs[zi-1]
								if !sp.tileAdmissible(c) {
									t.Fatalf("%v %s pruned=%v: z %d admitted at Sb %d, smaller %v not", sp.Shape, sp.Kind, sp.Pruned, z, sb, c)
								}
							}
						}
					}
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no admissible tile: the property is vacuous")
	}
}

// analyticDeck is a fixed deck shaped like the benchmark's novel pool: unit
// stride, channels 16–256, images 7–56, kernels 1, 3 and 5, each paired with
// the kinds a Winograd-enabled daemon scans for it.
func analyticDeck() (deck []shapes.ConvShape, kinds [][]Kind) {
	chans := []int{16, 32, 64, 128, 256}
	for _, k := range []int{1, 3, 5} {
		for _, cin := range chans {
			for _, cout := range chans {
				for _, hw := range []int{7, 14, 28, 56} {
					s := shapes.ConvShape{Batch: 1, Cin: cin, Hin: hw, Win: hw, Cout: cout,
						Hker: k, Wker: k, Strid: 1, Pad: k / 2}
					deck = append(deck, s)
					kinds = append(kinds, CandidateKinds(s, true, nil))
				}
			}
		}
	}
	return deck, kinds
}

// BenchmarkAnalyticScan is the analytic tier's first answer on a cold tier:
// the scan of a fresh space per (shape, candidate kind) of analyticDeck on
// V100, one at a time. It reports µs/space.
func BenchmarkAnalyticScan(b *testing.B) {
	deck, kinds := analyticDeck()
	spaces := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, s := range deck {
			for _, k := range kinds[j] {
				sp, err := NewSpace(s, memsim.V100, k, 0, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sp.Analytic(1); err != nil {
					b.Fatal(err)
				}
				spaces++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(spaces), "µs/space")
}

// BenchmarkMinFloor is the engine's scan for the minimum tight floor on
// ResNet-18's first 3×3 stage (Cin 64, 56×56) on V100, Direct and Winograd:
// ub=inf is the certificate's scan with no incumbent yet, ub=gap the gap
// stop's scan at the space's measured optimum over 1.3, which proves that no
// floor lies below it.
func BenchmarkMinFloor(b *testing.B) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	for _, kind := range []Kind{Direct, Winograd} {
		sp, err := NewSpace(s, memsim.V100, kind, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		mm := NewMemoMeasure(sp.Arch, sp.Shape, sp.Kind)
		best := math.Inf(1)
		sp.enumerate(func(c conv.Config) bool {
			if m, ok := mm.Measure(c); ok && m.Seconds < best {
				best = m.Seconds
			}
			return true
		})
		for _, ub := range []struct {
			name string
			ub   float64
		}{{"inf", math.Inf(1)}, {"gap", best / 1.3}} {
			b.Run(kind.String()+"/ub="+ub.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sp.minFloor(ub.ub)
				}
			})
		}
	}
}

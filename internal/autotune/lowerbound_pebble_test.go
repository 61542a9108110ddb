package autotune

import (
	"testing"

	"repro/internal/conv"
	"repro/internal/dag"
	"repro/internal/pebble"
	"repro/internal/shapes"
)

// The floor a kind prunes and certifies on is Kind.LowerBound, the larger of
// the theorem's Q(S) and the compulsory traffic. On the red–blue pebble game
// it is a theorem, not an assumption about the simulator: every complete
// calculation of the kind's DAG with S red pebbles does at least that much
// I/O. These properties check it against the exact optimum
// (pebble.Optimal) at every S the game accepts on DAGs of at most
// exactVertices vertices, and against the Belady schedule's I/O (an upper
// bound on the optimum) on larger ones. A counterexample is a wrong
// constant in internal/bounds or in the kind's bound.

// exactVertices caps the DAGs solved exactly at every S: pebble.Optimal
// takes well under a second over all S up to 18 vertices, but seconds per
// DAG at 19 and 20 (MaxOptimalVertices).
const exactVertices = 18

// TestDirectLowerBoundPebble: every single-image, unpadded shape with
// strides 1–3, kernels 1–3 × 1–2, 1–2 channels in and out and every input
// extent from the kernel to two strides past it.
func TestDirectLowerBoundPebble(t *testing.T) {
	var exact, belady, checks int
	for mu := 1; mu <= 3; mu++ {
		for kh := 1; kh <= 3; kh++ {
			for kw := 1; kw <= 2; kw++ {
				for hin := kh; hin <= kh+2*mu; hin++ {
					for win := kw; win <= kw+2*mu; win++ {
						for _, ch := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
							s := shapes.ConvShape{Batch: 1, Cin: ch[0], Hin: hin, Win: win, Cout: ch[1], Hker: kh, Wker: kw, Strid: mu}
							d, err := dag.BuildDirectConv(s)
							if err != nil {
								t.Fatalf("%v: %v", s, err)
							}
							checks += checkLowerBound(t, Direct, s, 0, d.Graph, &exact, &belady)
						}
					}
				}
			}
		}
	}
	t.Logf("%d DAGs exact, %d by Belady, %d (shape, S) checks", exact, belady, checks)
}

// TestWinogradLowerBoundPebble: F(e×e, r×r) for r 1–3 and e 1–2 on two input
// channels, one or two output channels and output planes of one or two
// tiles a side, on the DAG with transformed tiles shared and on the one
// that recomputes them.
func TestWinogradLowerBoundPebble(t *testing.T) {
	var exact, belady, checks int
	for r := 1; r <= 3; r++ {
		for e := 1; e <= 2; e++ {
			for _, tiles := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
				for cout := 1; cout <= 2; cout++ {
					s := shapes.ConvShape{Batch: 1, Cin: 2, Hin: tiles[0]*e + r - 1, Win: tiles[1]*e + r - 1, Cout: cout, Hker: r, Wker: r, Strid: 1}
					for _, shared := range []bool{false, true} {
						w, err := dag.BuildWinogradConv(s, e, shared)
						if err != nil {
							t.Fatalf("%v, e=%d: %v", s, e, err)
						}
						checks += checkLowerBound(t, Winograd, s, e, w.Graph, &exact, &belady)
					}
				}
			}
		}
	}
	t.Logf("%d DAGs exact, %d by Belady, %d (shape, S) checks", exact, belady, checks)
}

// checkLowerBound holds kind's bound for s (tile edge e) at or below the
// I/O of g with S red pebbles: the exact optimum at every S from the
// game's least to the vertex count on a DAG of at most exactVertices
// vertices, else the Belady schedule's at the least S, a few above it and
// the vertex count. It counts the DAG in exact or belady and returns the
// number of S checked.
func checkLowerBound(t *testing.T, kind Kind, s shapes.ConvShape, e int, g *dag.Graph, exact, belady *int) int {
	t.Helper()
	lo, n := g.MaxInDegree()+1, g.NumVertices()
	sizes := []int{lo, lo + 1, lo + 4, 2 * lo, n}
	if n <= exactVertices {
		*exact++
		sizes = sizes[:0]
		for S := lo; S <= n; S++ {
			sizes = append(sizes, S)
		}
	} else {
		*belady++
	}
	checked := 0
	for _, S := range sizes {
		if S > n {
			continue
		}
		var q int
		if n <= exactVertices {
			var err error
			if q, err = pebble.Optimal(g, S); err != nil {
				t.Fatalf("%v, S=%d: %v", s, S, err)
			}
		} else {
			sched, err := pebble.Greedy(g, S, pebble.Belady)
			if err != nil {
				t.Fatalf("%v, S=%d: %v", s, S, err)
			}
			q = sched.IO()
		}
		checked++
		if lb := kind.LowerBound(s, conv.Config{SharedPerBlock: S, WinogradE: e}); lb > float64(q) {
			t.Errorf("%s %v, e=%d, S=%d of %d vertices: lower bound %v above the I/O %d", kind, s, e, S, n, lb, q)
		}
	}
	return checked
}

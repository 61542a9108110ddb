package bounds

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/pebble"
	"repro/internal/shapes"
)

// The compulsory term on the red–blue pebble game, where it is a theorem and
// not an assumption about the simulator: the direct-convolution DAG's
// inputs start blue and its outputs must end blue, so every schedule loads
// each input vertex some product reads at least once and stores each output
// at least once. CompulsoryTraffic must therefore lie at or below the exact
// optimum Q at every S the solver accepts, and equal it once S ≥ the vertex
// count, where nothing is spilled or reloaded: a count one input too high
// fails the equality. The shapes are single-image and unpadded, as
// dag.BuildDirectConv requires, at strides 1–3 and kernels 1–3, with
// kernels narrower than, equal to and wider than the stride, so interior
// and trailing rows go unread. Each DAG is small enough for pebble.Optimal.
func TestCompulsoryTrafficPebbleOptimal(t *testing.T) {
	for _, s := range []shapes.ConvShape{
		{Cin: 1, Hin: 5, Win: 1, Cout: 1, Hker: 1, Wker: 1, Strid: 2}, // k < μ: rows 1, 3 unread
		{Cin: 1, Hin: 7, Win: 1, Cout: 1, Hker: 1, Wker: 1, Strid: 3}, // k < μ: 4 of 7 rows unread
		{Cin: 1, Hin: 3, Win: 2, Cout: 1, Hker: 1, Wker: 1, Strid: 2}, // k < μ on both axes: 2 of 6 read
		{Cin: 1, Hin: 4, Win: 1, Cout: 2, Hker: 1, Wker: 1, Strid: 3}, // two filters share the read rows
		{Cin: 1, Hin: 5, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 3}, // k < μ: row 2 unread
		{Cin: 1, Hin: 4, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 2}, // k = μ: every row read once
		{Cin: 1, Hin: 3, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 1}, // k > μ: windows overlap
		{Cin: 1, Hin: 3, Win: 1, Cout: 1, Hker: 3, Wker: 1, Strid: 1}, // one window covers all
		{Cin: 1, Hin: 4, Win: 1, Cout: 1, Hker: 3, Wker: 1, Strid: 2}, // k > μ: trailing row 3 unread
	} {
		s.Batch = 1
		d := directDAG(t, s)
		if n := d.NumVertices(); n > pebble.MaxOptimalVertices {
			t.Fatalf("%v: %d vertices, beyond the exact solver's %d", s, n, pebble.MaxOptimalVertices)
		}
		c := CompulsoryTraffic(s)
		for S := d.MaxInDegree() + 1; S <= d.NumVertices(); S++ {
			q, err := pebble.Optimal(d.Graph, S)
			if err != nil {
				t.Fatalf("%v, S=%d: %v", s, S, err)
			}
			if c > float64(q) {
				t.Errorf("%v, S=%d: compulsory %v above the optimal I/O %d", s, S, c, q)
			}
			if S == d.NumVertices() && c != float64(q) {
				t.Errorf("%v, S=%d (every vertex): compulsory %v, optimal I/O %d", s, S, c, q)
			}
		}
	}
}

// Beyond the exact solver's reach the Belady schedule's I/O is an upper
// bound on the optimum, so the compulsory term must lie at or below it: every
// single-image unpadded shape with 1–2 channels in and out, strides 1–3,
// kernels 1–3 on each axis and every input extent from the kernel to two
// strides past it, at the smallest S the game accepts, a few above it and
// at the vertex count. With every vertex in fast memory the schedule spills
// nothing, so there it must equal the term.
func TestCompulsoryTrafficPebbleBelady(t *testing.T) {
	checked := 0
	for mu := 1; mu <= 3; mu++ {
		for kh := 1; kh <= 3; kh++ {
			for kw := 1; kw <= 3; kw++ {
				for hin := kh; hin <= kh+2*mu; hin++ {
					for win := kw; win <= kw+2*mu; win++ {
						for _, ch := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
							s := shapes.ConvShape{Batch: 1, Cin: ch[0], Hin: hin, Win: win, Cout: ch[1], Hker: kh, Wker: kw, Strid: mu}
							d := directDAG(t, s)
							n := d.NumVertices()
							if n <= pebble.MaxOptimalVertices {
								continue
							}
							checked++
							c := CompulsoryTraffic(s)
							lo := d.MaxInDegree() + 1
							for _, S := range []int{lo, lo + 1, lo + 4, 2 * lo, n} {
								sched, err := pebble.Greedy(d.Graph, S, pebble.Belady)
								if err != nil {
									t.Fatalf("%v, S=%d: %v", s, S, err)
								}
								if io := float64(sched.IO()); c > io || S == n && c != io {
									t.Errorf("%v, S=%d of %d vertices: compulsory %v, Belady I/O %v", s, S, n, c, io)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d DAGs beyond %d vertices", checked, pebble.MaxOptimalVertices)
}

func directDAG(t *testing.T, s shapes.ConvShape) *dag.DirectConv {
	t.Helper()
	d, err := dag.BuildDirectConv(s)
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	return d
}

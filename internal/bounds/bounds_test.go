package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/shapes"
)

func layer() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1}
}

func TestTEngineSimple(t *testing.T) {
	// One step with φ(k)=k, ψ(k)=0: T(S) = S + S = 2S.
	steps := []Step{{Phi: func(k float64) float64 { return k }, Psi: func(k float64) float64 { return 0 }}}
	if got := T(steps, 10); got != 20 {
		t.Errorf("T=%v want 20", got)
	}
	// Two steps, φ1(k)=k, ψ1(k)=2k, φ2(k)=k: give all budget to step 1:
	// T(S) = S + max_{k1+k2<=S} [k1 + (k2 + 2k1)] = S + 3S = 4S at k1=S.
	steps = []Step{
		{Phi: func(k float64) float64 { return k }, Psi: func(k float64) float64 { return 2 * k }},
		{Phi: func(k float64) float64 { return k }, Psi: func(k float64) float64 { return 0 }},
	}
	if got := T(steps, 10); got != 40 {
		t.Errorf("T=%v want 40", got)
	}
}

func TestTEngineEmptyAndZero(t *testing.T) {
	if got := T(nil, 5); got != 5 {
		t.Errorf("T(nil)=%v want 5", got)
	}
	steps := []Step{{Phi: func(k float64) float64 { return k }, Psi: func(k float64) float64 { return 0 }}}
	if got := T(steps, 0); got != 0 {
		t.Errorf("T(S=0)=%v want 0", got)
	}
}

func TestTGranularApproximatesT(t *testing.T) {
	steps := DirectSteps(layer(), 64)
	exact := T(steps, 64)
	approx := TGranular(steps, 64, 8)
	if approx > exact {
		t.Errorf("granular %v exceeded exact %v", approx, exact)
	}
	if approx < 0.8*exact {
		t.Errorf("granular %v too far below exact %v", approx, exact)
	}
}

// The engine's exact maximization must never exceed the closed-form upper
// bound of Lemma 4.11.
func TestDirectEngineWithinClosedForm(t *testing.T) {
	s := layer()
	for _, S := range []int{8, 32, 128} {
		engine := T(DirectSteps(s, S), S)
		closed := DirectTClosed(s, S)
		if engine > closed+1e-6 {
			t.Errorf("S=%d: engine T=%v above closed form %v", S, engine, closed)
		}
	}
}

// Consequently the engine lower bound is at least the closed-form bound.
func TestDirectEngineBoundTighter(t *testing.T) {
	s := layer()
	for _, S := range []int{16, 64, 256} {
		if eng, cl := DirectLowerBoundEngine(s, S), DirectLowerBound(s, S); eng < cl-1e-6 {
			t.Errorf("S=%d: engine bound %v below closed-form bound %v", S, eng, cl)
		}
	}
}

// Lemma 4.19 is an O(·) statement: the engine's exact maximum must agree
// with the closed form up to a bounded constant and share its S^{3/2}+S
// growth.
func TestWinogradEngineTracksClosedForm(t *testing.T) {
	s := layer()
	for _, S := range []int{32, 128} {
		engine := T(WinogradSteps(s, 2, S), S)
		closed := WinogradTClosed(s, 2, S)
		if ratio := engine / closed; ratio < 0.25 || ratio > 8 {
			t.Errorf("S=%d: engine T=%v vs closed form %v (ratio %v outside O(1))", S, engine, closed, ratio)
		}
	}
	// Growth between S and 4S must stay between linear (4x) and the
	// closed form's S^{3/2} regime (8x).
	g := T(WinogradSteps(s, 2, 128), 128) / T(WinogradSteps(s, 2, 32), 32)
	if g < 3.5 || g > 8.5 {
		t.Errorf("engine growth T(128)/T(32)=%v outside [3.5, 8.5]", g)
	}
}

func TestLowerBoundsPositiveAndMonotone(t *testing.T) {
	s := layer()
	// Bounds decrease in S (more fast memory -> less required I/O).
	prevD, prevW := math.Inf(1), math.Inf(1)
	for _, S := range []int{64, 256, 1024, 4096} {
		d := DirectLowerBound(s, S)
		w := WinogradLowerBound(s, 2, S)
		if d <= 0 || w <= 0 {
			t.Fatalf("S=%d: nonpositive bound d=%v w=%v", S, d, w)
		}
		if d > prevD || w > prevW {
			t.Errorf("S=%d: bound increased with memory: d=%v (prev %v), w=%v (prev %v)", S, d, prevD, w, prevW)
		}
		prevD, prevW = d, w
	}
}

func TestLeadingTermsTrackExactBounds(t *testing.T) {
	s := layer()
	for _, S := range []int{256, 1024} {
		exact := DirectLowerBound(s, S)
		lead := DirectLowerBoundLeading(s, S)
		if ratio := exact / lead; ratio < 0.2 || ratio > 2 {
			t.Errorf("direct S=%d: exact/leading=%v out of range", S, ratio)
		}
	}
}

// Any legal dataflow must move at least the lower bound; in particular the
// paper's own dataflow I/O model at the optimum must sit above the bound.
func TestDataflowAboveLowerBound(t *testing.T) {
	s := layer()
	for _, S := range []int{1024, 4096, 16384} {
		lb := DirectLowerBound(s, S)
		df := DirectDataflowIOOptimal(s, S, 1)
		if df < lb {
			t.Errorf("S=%d: direct dataflow I/O %v below lower bound %v", S, df, lb)
		}
		lbw := WinogradLowerBound(s, 2, S)
		dfw := WinogradDataflowIOOptimal(s, 2, S, 1)
		if dfw < lbw {
			t.Errorf("S=%d: winograd dataflow I/O %v below lower bound %v", S, dfw, lbw)
		}
	}
}

// The paper's near-optimality claim: for Np=1 and Hker·Wker·Cin/sqrt(SR) ≫ 1
// the dataflow is within a small constant of the bound's leading term.
func TestDirectDataflowNearOptimal(t *testing.T) {
	s := layer()
	S := 4096
	df := DirectDataflowIOOptimal(s, S, 1)
	lead := DirectLowerBoundLeading(s, S)
	ratio := df / lead
	if ratio < 1 || ratio > 16 {
		t.Errorf("dataflow/leading-bound ratio %v not a small constant", ratio)
	}
}

// Equation 20's minimization: among tiles of equal volume, the one satisfying
// xy = Rz has the lowest modeled I/O.
func TestOptimalityConditionMinimizesIO(t *testing.T) {
	s := layer()
	// R = 9. Tile volume 144: (36,4) wait—use x*y and z with xyz fixed.
	// Candidates with volume 576: xy=144,z=4 violates; xy=72,z=8 violates;
	// xy=36·... pick (x,y,z): optimal (12,12,16/...): R·z = xy -> z = xy/9.
	opt := Tile{X: 12, Y: 12, Z: 16}   // xy=144, Rz=144: satisfies
	worse1 := Tile{X: 24, Y: 24, Z: 4} // xy=576, Rz=36
	worse2 := Tile{X: 4, Y: 4, Z: 144} // xy=16, Rz=1296
	if opt.Volume() != worse1.Volume() || opt.Volume() != worse2.Volume() {
		t.Fatal("test tiles must have equal volume")
	}
	qo := DirectDataflowIO(s, opt)
	if q1 := DirectDataflowIO(s, worse1); q1 <= qo {
		t.Errorf("output-heavy tile %v (Q=%v) not worse than optimal %v (Q=%v)", worse1, q1, opt, qo)
	}
	if q2 := DirectDataflowIO(s, worse2); q2 <= qo {
		t.Errorf("channel-heavy tile %v (Q=%v) not worse than optimal %v (Q=%v)", worse2, q2, opt, qo)
	}
	if !opt.SatisfiesOptimality(s.R(), 1e-9) {
		t.Error("optimal tile fails its own condition")
	}
	if worse1.SatisfiesOptimality(s.R(), 0.1) {
		t.Error("bad tile passes the condition")
	}
}

func TestOptimalTileDirect(t *testing.T) {
	s := layer()
	tile := OptimalTileDirect(s, 4096, 1)
	if tile.X < 1 || tile.Y < 1 || tile.Z < 1 {
		t.Fatalf("degenerate tile %+v", tile)
	}
	if gap := tile.OptimalityGap(s.R()); gap > 0.25 {
		t.Errorf("rounded optimal tile %+v has gap %v", tile, gap)
	}
	// Volume should be near the budget.
	if v := tile.Volume(); v < 4096/4 || v > 4096*2 {
		t.Errorf("tile volume %d far from budget 4096", v)
	}
}

func TestOptimalTileWinograd(t *testing.T) {
	s := layer()
	tile := OptimalTileWinograd(s, 2, 8192, 1)
	if tile.X < 1 || tile.Y < 1 || tile.Z < 1 {
		t.Fatalf("degenerate tile %+v", tile)
	}
	r2 := float64(s.Hker * s.Hker)
	if gap := tile.OptimalityGap(r2); gap > 0.3 {
		t.Errorf("winograd tile %+v gap %v vs xy=r²z", tile, gap)
	}
}

// Property: the exact-halo I/O model always dominates the paper's
// approximation for stride-1 convs (the halo only adds reads).
func TestExactHaloDominatesModel(t *testing.T) {
	s := layer()
	f := func(xi, yi, zi uint8) bool {
		tile := Tile{X: int(xi%16) + 1, Y: int(yi%16) + 1, Z: int(zi%16) + 1}
		return DirectDataflowIOExact(s, tile) >= DirectDataflowIO(s, tile)-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more processors sharing the same on-chip budget means smaller
// per-block tiles and thus more I/O (Equation 21 grows with sqrt(Np)).
func TestParallelIOMonotoneInNp(t *testing.T) {
	s := layer()
	prev := 0.0
	for _, np := range []int{1, 2, 4, 8, 16} {
		q := DirectDataflowIOOptimal(s, 8192, np)
		if q < prev {
			t.Errorf("Np=%d: I/O %v decreased from %v", np, q, prev)
		}
		prev = q
	}
}

func TestBatchScaling(t *testing.T) {
	s := layer()
	single := DirectLowerBound(s, 1024)
	batched := DirectLowerBound(s.WithBatch(8), 1024)
	if math.Abs(batched-8*single) > 8*single*0.01 {
		t.Errorf("batched bound %v not ~8x single %v", batched, single)
	}
}

// The compulsory term's arithmetic: outputs written, weights read (Cin/G per
// filter on a grouped layer) and the inputs some window reads, all scaled by
// the batch where they are per image. The strided cases are counted by hand.
func TestCompulsoryTraffic(t *testing.T) {
	dense := shapes.ConvShape{Batch: 2, Cin: 4, Hin: 6, Win: 5, Cout: 8, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	// Outputs 2·6·5·8, weights 3·3·4·8, inputs 2·4·6·5.
	if got, want := CompulsoryTraffic(dense), float64(480+288+240); got != want {
		t.Errorf("dense: C = %v, want %v", got, want)
	}
	grouped := dense
	grouped.Groups = 2
	// Each filter spans Cin/G = 2 channels: 3·3·2·8 weights.
	if got, want := CompulsoryTraffic(grouped), float64(480+144+240); got != want {
		t.Errorf("grouped: C = %v, want %v", got, want)
	}
	if got, want := CompulsoryTraffic(grouped), float64(2*grouped.OutputVolume()+grouped.KernelVolume()+2*grouped.InputVolume()); got != want {
		t.Errorf("grouped: C = %v, want outputs + KernelVolume + inputs = %v", got, want)
	}
	depthwise := dense
	depthwise.Cout, depthwise.Groups = 4, 4
	// Outputs 2·6·5·4, one 3×3 filter per channel, inputs 2·4·6·5.
	if got, want := CompulsoryTraffic(depthwise), float64(240+36+240); got != want {
		t.Errorf("depthwise: C = %v, want %v", got, want)
	}
	for _, c := range []struct {
		name  string
		shape shapes.ConvShape
		want  float64
	}{
		// 1×1/2 on 5×4: Hout 3, Wout 2. The windows read rows 0, 2, 4 and
		// columns 0, 2, so 3·2 of the 5·4 pixels per channel: outputs
		// 3·2·2, weights 3·2, inputs 3·2·3.
		{"1x1/2", shapes.ConvShape{Batch: 1, Cin: 3, Hin: 5, Win: 4, Cout: 2, Hker: 1, Wker: 1, Strid: 2}, 12 + 6 + 18},
		// 3×3/2 pad 1 on 6×5: Hout = (6+2−3)/2+1 = 3, Wout = (5+2−3)/2+1 =
		// 3. The row windows [−1,1], [1,3], [3,5] cover rows 0–5 and the
		// column windows columns 0–4: every input is read, outputs 2·3·3·8,
		// weights 3·3·4·8, inputs 2·4·6·5.
		{"3x3/2 pad 1", func() shapes.ConvShape { s := dense; s.Strid = 2; return s }(), 144 + 288 + 240},
		// 3×3/2 on 6×5, no padding: Hout = 2, Wout = 2. Rows [0,2], [2,4]
		// leave row 5 unread, columns [0,2], [2,4] read all five: inputs
		// 2·4·5·5.
		{"3x3/2", func() shapes.ConvShape { s := dense; s.Strid, s.Pad = 2, 0; return s }(), 2*2*2*8 + 288 + 200},
		// AlexNet's conv1: 11×11/4 on 227², Hout 55. The last window is
		// [216, 226], so every pixel is read: outputs 55·55·96, weights
		// 11·11·3·96, inputs 3·227·227.
		{"11x11/4", shapes.ConvShape{Batch: 1, Cin: 3, Hin: 227, Win: 227, Cout: 96, Hker: 11, Wker: 11, Strid: 4}, 290400 + 34848 + 154587},
		// The same on 225 rows: Hout 54, the last row window is [212, 222]
		// and rows 223–224 go unread: outputs 54·55·96, inputs 3·223·227.
		{"11x11/4 short", shapes.ConvShape{Batch: 1, Cin: 3, Hin: 225, Win: 227, Cout: 96, Hker: 11, Wker: 11, Strid: 4}, 285120 + 34848 + 151863},
	} {
		if got := CompulsoryTraffic(c.shape); got != c.want {
			t.Errorf("%s: C = %v, want %v", c.name, got, c.want)
		}
	}
}

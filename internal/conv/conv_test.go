package conv

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

var testArch = memsim.GTX1080Ti

func smallShape() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 3, Hin: 12, Win: 12, Cout: 4, Hker: 3, Wker: 3, Strid: 1}
}

func testShapes() []shapes.ConvShape {
	return []shapes.ConvShape{
		smallShape(),
		{Batch: 2, Cin: 3, Hin: 12, Win: 12, Cout: 4, Hker: 3, Wker: 3, Strid: 1, Pad: 1},
		{Batch: 1, Cin: 2, Hin: 13, Win: 11, Cout: 3, Hker: 3, Wker: 3, Strid: 2},
		{Batch: 1, Cin: 2, Hin: 15, Win: 15, Cout: 5, Hker: 5, Wker: 5, Strid: 1, Pad: 2},
		{Batch: 1, Cin: 4, Hin: 9, Win: 9, Cout: 2, Hker: 1, Wker: 1, Strid: 1},
	}
}

func directConfig(s shapes.ConvShape) Config {
	cfg := Config{
		TileX: min(4, s.Wout()), TileY: min(4, s.Hout()), TileZ: min(2, s.Cout),
		ThreadsX: 2, ThreadsY: 2, ThreadsZ: 1,
		SharedPerBlock: 4096, Layout: tensor.NCHW,
	}
	return cfg
}

const tol = 2e-3

func TestNaiveMatchesReference(t *testing.T) {
	for _, s := range testShapes() {
		in, ker := RandomOperands(s, 1)
		want, err := Reference(s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NaiveDirect(testArch, s, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v: naive output differs by %g", s, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func TestIm2colMatchesReference(t *testing.T) {
	for _, s := range testShapes() {
		in, ker := RandomOperands(s, 2)
		want, _ := Reference(s, in, ker)
		got, err := Im2colGEMM(testArch, s, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v: im2col output differs by %g", s, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func TestDirectTiledMatchesReference(t *testing.T) {
	for _, s := range testShapes() {
		in, ker := RandomOperands(s, 3)
		want, _ := Reference(s, in, ker)
		got, err := DirectTiled(testArch, s, directConfig(s), in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v: tiled output differs by %g", s, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func TestDirectTiledOddTiles(t *testing.T) {
	// Tile sizes that do not divide the output exercise the clipping paths.
	s := shapes.ConvShape{Batch: 1, Cin: 2, Hin: 11, Win: 13, Cout: 5, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	in, ker := RandomOperands(s, 4)
	want, _ := Reference(s, in, ker)
	for _, cfg := range []Config{
		{TileX: 5, TileY: 4, TileZ: 3, ThreadsX: 2, ThreadsY: 2, ThreadsZ: 1, SharedPerBlock: 4096},
		{TileX: 13, TileY: 11, TileZ: 5, ThreadsX: 4, ThreadsY: 4, ThreadsZ: 1, SharedPerBlock: 8192},
		{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 64},
	} {
		got, err := DirectTiled(testArch, s, cfg, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v: output differs by %g", cfg, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func winoShape() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 3, Hin: 10, Win: 10, Cout: 4, Hker: 3, Wker: 3, Strid: 1}
}

func winoConfig(s shapes.ConvShape, e int) Config {
	return Config{
		TileX: 4, TileY: 4, TileZ: 2,
		ThreadsX: 2, ThreadsY: 2, ThreadsZ: 2,
		SharedPerBlock: 8192, Layout: tensor.NCHW, WinogradE: e,
	}
}

func TestWinogradUnfusedMatchesReference(t *testing.T) {
	cases := []struct {
		s shapes.ConvShape
		e int
	}{
		{winoShape(), 2},
		{winoShape(), 4},
		{shapes.ConvShape{Batch: 2, Cin: 2, Hin: 9, Win: 9, Cout: 3, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, 2},
		{shapes.ConvShape{Batch: 1, Cin: 2, Hin: 7, Win: 9, Cout: 2, Hker: 3, Wker: 3, Strid: 1}, 2}, // odd outputs
	}
	for _, c := range cases {
		in, ker := RandomOperands(c.s, 5)
		want, _ := Reference(c.s, in, ker)
		got, err := WinogradUnfused(testArch, c.s, c.e, in, ker)
		if err != nil {
			t.Fatalf("%v e=%d: %v", c.s, c.e, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v e=%d: unfused differs by %g", c.s, c.e, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func TestWinogradFusedMatchesReference(t *testing.T) {
	cases := []struct {
		s shapes.ConvShape
		e int
	}{
		{winoShape(), 2},
		{shapes.ConvShape{Batch: 2, Cin: 2, Hin: 9, Win: 9, Cout: 3, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, 2},
		{shapes.ConvShape{Batch: 1, Cin: 2, Hin: 7, Win: 9, Cout: 2, Hker: 3, Wker: 3, Strid: 1}, 2},
		{shapes.ConvShape{Batch: 1, Cin: 2, Hin: 14, Win: 14, Cout: 3, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, 4},
	}
	for _, c := range cases {
		in, ker := RandomOperands(c.s, 6)
		want, _ := Reference(c.s, in, ker)
		cfg := winoConfig(c.s, c.e)
		if c.e == 4 {
			cfg.TileX, cfg.TileY = 8, 8
		}
		got, err := WinogradFused(testArch, c.s, cfg, in, ker)
		if err != nil {
			t.Fatalf("%v e=%d: %v", c.s, c.e, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v e=%d: fused differs by %g", c.s, c.e, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

// Dry runs must count exactly what wet runs count — this is what licenses
// paper-scale dry measurements.
func TestDryMatchesWet(t *testing.T) {
	for _, s := range testShapes() {
		in, ker := RandomOperands(s, 7)
		wet, err := NaiveDirect(testArch, s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		dry, err := NaiveDirectDry(testArch, s)
		if err != nil {
			t.Fatal(err)
		}
		if wet.Counts != dry.Counts {
			t.Errorf("%v naive: wet %v != dry %v", s, wet.Counts, dry.Counts)
		}
		wet, err = Im2colGEMM(testArch, s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		dry, err = Im2colGEMMDry(testArch, s)
		if err != nil {
			t.Fatal(err)
		}
		if wet.Counts != dry.Counts {
			t.Errorf("%v im2col: wet %v != dry %v", s, wet.Counts, dry.Counts)
		}
		cfg := directConfig(s)
		wet, err = DirectTiled(testArch, s, cfg, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := DryDirectTiled(testArch, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wet.Counts != tiled.Counts {
			t.Errorf("%v tiled: wet %v != dry %v", s, wet.Counts, tiled.Counts)
		}
	}
	ws := winoShape()
	in, ker := RandomOperands(ws, 8)
	wet, err := WinogradFused(testArch, ws, winoConfig(ws, 2), in, ker)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := DryWinogradFused(testArch, ws, winoConfig(ws, 2))
	if err != nil {
		t.Fatal(err)
	}
	if wet.Counts != fused.Counts {
		t.Errorf("wino fused: wet %v != dry %v", wet.Counts, fused.Counts)
	}
	wet, err = WinogradUnfused(testArch, ws, 2, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	dry, err := WinogradUnfusedDry(testArch, ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wet.Counts != dry.Counts {
		t.Errorf("wino unfused: wet %v != dry %v", wet.Counts, dry.Counts)
	}
}

// The paper's headline ordering at realistic scale: the tiled dataflow moves
// far less off-chip data than im2col, which moves less than naive.
func TestIOOrdering(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1}
	cfg := DefaultDirectConfig(testArch, s)
	tiled, err := DryDirectTiled(testArch, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Im2colGEMMDry(testArch, s)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveDirectDry(testArch, s)
	if err != nil {
		t.Fatal(err)
	}
	if !(tiled.Counts.GlobalIO() < col.Counts.GlobalIO()) {
		t.Errorf("tiled I/O %d not below im2col %d", tiled.Counts.GlobalIO(), col.Counts.GlobalIO())
	}
	if !(col.Counts.GlobalIO() < naive.Counts.GlobalIO()) {
		t.Errorf("im2col I/O %d not below naive %d", col.Counts.GlobalIO(), naive.Counts.GlobalIO())
	}
	if !(tiled.Seconds < col.Seconds && col.Seconds < naive.Seconds) {
		t.Errorf("time ordering violated: %v / %v / %v", tiled.Seconds, col.Seconds, naive.Seconds)
	}
}

// Measured tiled-dataflow I/O must match the paper's Equation 21 model
// closely (exact halo version) when tiles divide the output.
func TestTiledIOMatchesEq21(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 32, Hin: 30, Win: 30, Cout: 32, Hker: 3, Wker: 3, Strid: 1}
	cfg := Config{TileX: 7, TileY: 7, TileZ: 8, ThreadsX: 7, ThreadsY: 7, ThreadsZ: 1,
		SharedPerBlock: 8192, Layout: tensor.NCHW}
	if s.Wout()%cfg.TileX != 0 || s.Hout()%cfg.TileY != 0 || s.Cout%cfg.TileZ != 0 {
		t.Fatal("test requires dividing tiles")
	}
	res, err := DryDirectTiled(testArch, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := bounds.DirectDataflowIOExact(s, cfg.Tile())
	got := float64(res.Counts.GlobalIO())
	if rel := math.Abs(got-model) / model; rel > 0.01 {
		t.Errorf("measured I/O %v vs Eq.21(exact halo) %v: rel err %v", got, model, rel)
	}
}

// Fused Winograd must beat the unfused library pipeline on off-chip traffic.
func TestWinogradFusedBeatsUnfused(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	cfg := DefaultWinogradConfig(testArch, s, 2)
	fused, err := DryWinogradFused(testArch, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := WinogradUnfusedDry(testArch, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(fused.Counts.GlobalIO() < unfused.Counts.GlobalIO()) {
		t.Errorf("fused I/O %d not below unfused %d", fused.Counts.GlobalIO(), unfused.Counts.GlobalIO())
	}
}

// Measured tiled I/O must respect the theoretical lower bound.
func TestMeasuredIOAboveLowerBound(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1}
	cfg := DefaultDirectConfig(testArch, s)
	res, err := DryDirectTiled(testArch, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := bounds.DirectLowerBound(s, cfg.SharedPerBlock)
	if float64(res.Counts.GlobalIO()) < lb {
		t.Errorf("measured I/O %d below lower bound %v", res.Counts.GlobalIO(), lb)
	}
}

func TestConfigValidation(t *testing.T) {
	s := smallShape()
	good := directConfig(s)
	if err := good.ValidateDirect(s, testArch); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.TileX = 0
	if err := bad.ValidateDirect(s, testArch); err == nil {
		t.Error("zero tile accepted")
	}
	bad = good
	bad.TileX = s.Wout() + 1
	if err := bad.ValidateDirect(s, testArch); err == nil {
		t.Error("oversized tile accepted")
	}
	bad = good
	bad.SharedPerBlock = 4
	if err := bad.ValidateDirect(s, testArch); err == nil {
		t.Error("tiny shared memory accepted")
	}
	bad = good
	bad.SharedPerBlock = testArch.SharedPerSM
	if err := bad.ValidateDirect(s, testArch); err == nil {
		t.Error("Sb above Ssm/2 accepted")
	}
	bad = good
	bad.ThreadsX, bad.ThreadsY, bad.ThreadsZ = 64, 64, 64
	if err := bad.ValidateDirect(s, testArch); err == nil {
		t.Error("over 1024 threads accepted")
	}
	ws := winoShape()
	wcfg := winoConfig(ws, 2)
	if err := wcfg.ValidateWinograd(ws, testArch); err != nil {
		t.Fatalf("good winograd config rejected: %v", err)
	}
	wbad := wcfg
	wbad.TileX = 5 // not divisible by e
	if err := wbad.ValidateWinograd(ws, testArch); err == nil {
		t.Error("non-divisible winograd tile accepted")
	}
	sw := ws
	sw.Strid = 2
	if err := wcfg.ValidateWinograd(sw, testArch); err == nil {
		t.Error("stride-2 winograd accepted")
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	for _, s := range []shapes.ConvShape{
		smallShape(),
		{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1},
		{Batch: 1, Cin: 3, Hin: 227, Win: 227, Cout: 96, Hker: 11, Wker: 11, Strid: 4},
	} {
		cfg := DefaultDirectConfig(testArch, s)
		if err := cfg.ValidateDirect(s, testArch); err != nil {
			t.Errorf("%v: default direct config invalid: %v", s, err)
		}
	}
	ws := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1}
	cfg := DefaultWinogradConfig(testArch, ws, 2)
	if err := cfg.ValidateWinograd(ws, testArch); err != nil {
		t.Errorf("default winograd config invalid: %v", err)
	}
}

func TestOperandChecks(t *testing.T) {
	s := smallShape()
	in, ker := RandomOperands(s, 9)
	wrong := tensor.New(1, 1, 1, 1)
	if _, err := Reference(s, wrong, ker); err == nil {
		t.Error("wrong input accepted")
	}
	if _, err := Reference(s, in, wrong); err == nil {
		t.Error("wrong kernel accepted")
	}
}

// Speedup over the library baseline must grow with image size (the paper's
// first Figure-9 observation).
func TestSpeedupGrowsWithImageSize(t *testing.T) {
	prev := 0.0
	for _, hw := range []int{14, 56, 112} {
		s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: hw, Win: hw, Cout: 128, Hker: 3, Wker: 3, Strid: 1}
		cfg := DefaultDirectConfig(testArch, s)
		tiled, err := DryDirectTiled(testArch, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := Im2colGEMMDry(testArch, s)
		if err != nil {
			t.Fatal(err)
		}
		speedup := col.Seconds / tiled.Seconds
		if speedup < prev*0.9 {
			t.Errorf("H=W=%d: speedup %v fell well below previous %v", hw, speedup, prev)
		}
		prev = speedup
	}
}

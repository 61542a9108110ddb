package conv

import (
	"math/rand"
	"testing"

	"repro/internal/shapes"
	"repro/internal/tensor"
)

// This file holds randomized cross-implementation properties: any admissible
// configuration — not just the hand-picked ones — must produce numerically
// correct results and identical wet/dry counts.

// randomDirectConfig draws a random valid direct config for the shape.
func randomDirectConfig(rng *rand.Rand, s shapes.ConvShape) Config {
	for {
		cfg := Config{
			TileX:          1 + rng.Intn(s.Wout()),
			TileY:          1 + rng.Intn(s.Hout()),
			TileZ:          1 + rng.Intn(s.Cout),
			SharedPerBlock: 4096 << rng.Intn(2),
			Layout:         tensor.Layouts[rng.Intn(len(tensor.Layouts))],
		}
		cfg.ThreadsX = 1 + rng.Intn(cfg.TileX)
		cfg.ThreadsY = 1 + rng.Intn(cfg.TileY)
		cfg.ThreadsZ = 1
		if cfg.ValidateDirect(s, testArch) == nil {
			return cfg
		}
	}
}

// randomWinogradConfig draws a random valid fused-Winograd config.
func randomWinogradConfig(rng *rand.Rand, s shapes.ConvShape) Config {
	es := []int{2, 4}
	for {
		e := es[rng.Intn(len(es))]
		gx := (s.Wout() + e - 1) / e
		gy := (s.Hout() + e - 1) / e
		cfg := Config{
			TileX:          e * (1 + rng.Intn(gx)),
			TileY:          e * (1 + rng.Intn(gy)),
			TileZ:          1 + rng.Intn(s.Cout),
			SharedPerBlock: 8192 << rng.Intn(2),
			Layout:         tensor.Layouts[rng.Intn(len(tensor.Layouts))],
			WinogradE:      e,
		}
		cfg.ThreadsX = 1 + rng.Intn(cfg.TileX)
		cfg.ThreadsY = 1
		cfg.ThreadsZ = 1 + rng.Intn(cfg.TileZ)
		if cfg.ValidateWinograd(s, testArch) == nil {
			return cfg
		}
	}
}

// Property: every admissible direct config computes the right answer and its
// dry counts equal its wet counts.
func TestDirectTiledRandomConfigsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ss := []shapes.ConvShape{
		{Batch: 1, Cin: 3, Hin: 11, Win: 13, Cout: 5, Hker: 3, Wker: 3, Strid: 1, Pad: 1},
		{Batch: 2, Cin: 2, Hin: 10, Win: 10, Cout: 4, Hker: 5, Wker: 5, Strid: 2, Pad: 2},
	}
	for _, s := range ss {
		in, ker := RandomOperands(s, 7)
		want, err := Reference(s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			cfg := randomDirectConfig(rng, s)
			wet, err := DirectTiled(testArch, s, cfg, in, ker)
			if err != nil {
				t.Fatalf("%v %v: %v", s, cfg, err)
			}
			if !tensor.AllClose(wet.Output, want, tol) {
				t.Fatalf("%v %v: wrong result, diff=%g", s, cfg, tensor.MaxAbsDiff(wet.Output, want))
			}
			dry, err := DryDirectTiled(testArch, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wet.Counts != dry.Counts {
				t.Fatalf("%v %v: dry %v != wet %v", s, cfg, dry.Counts, wet.Counts)
			}
		}
	}
}

// Property: every admissible Winograd config computes the right answer and
// its dry counts equal its wet counts.
func TestWinogradFusedRandomConfigsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ss := []shapes.ConvShape{
		{Batch: 1, Cin: 3, Hin: 11, Win: 13, Cout: 4, Hker: 3, Wker: 3, Strid: 1, Pad: 1},
		{Batch: 1, Cin: 2, Hin: 9, Win: 9, Cout: 3, Hker: 3, Wker: 3, Strid: 1},
	}
	for _, s := range ss {
		in, ker := RandomOperands(s, 8)
		want, err := Reference(s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			cfg := randomWinogradConfig(rng, s)
			wet, err := WinogradFused(testArch, s, cfg, in, ker)
			if err != nil {
				t.Fatalf("%v %v: %v", s, cfg, err)
			}
			if !tensor.AllClose(wet.Output, want, tol) {
				t.Fatalf("%v %v: wrong result, diff=%g", s, cfg, tensor.MaxAbsDiff(wet.Output, want))
			}
			dry, err := DryWinogradFused(testArch, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wet.Counts != dry.Counts {
				t.Fatalf("%v %v: dry %v != wet %v", s, cfg, dry.Counts, wet.Counts)
			}
		}
	}
}

// Property: the tiled dataflow's measured global I/O never falls below the
// Equation-20 model minus clipping slack, and never below outputs+minimal
// reads — and more shared memory (bigger admissible tiles) never increases
// measured I/O for dividing tiles.
func TestDirectTiledIOMonotoneInTileVolume(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 26, Win: 26, Cout: 16, Hker: 3, Wker: 3, Strid: 1}
	prev := int64(1 << 62)
	for _, tile := range []Config{
		{TileX: 2, TileY: 2, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 8192},
		{TileX: 4, TileY: 4, TileZ: 2, ThreadsX: 2, ThreadsY: 2, ThreadsZ: 1, SharedPerBlock: 8192},
		{TileX: 8, TileY: 8, TileZ: 4, ThreadsX: 4, ThreadsY: 4, ThreadsZ: 1, SharedPerBlock: 8192},
		{TileX: 24, TileY: 24, TileZ: 8, ThreadsX: 8, ThreadsY: 8, ThreadsZ: 1, SharedPerBlock: 8192},
	} {
		res, err := DryDirectTiled(testArch, s, tile)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts.GlobalIO() > prev {
			t.Errorf("tile %v: I/O %d above smaller tile's %d", tile, res.Counts.GlobalIO(), prev)
		}
		prev = res.Counts.GlobalIO()
	}
}

// randomShape draws a small random-but-valid convolution shape.
func randomShape(rng *rand.Rand) shapes.ConvShape {
	for {
		s := shapes.ConvShape{
			Batch: 1 + rng.Intn(2),
			Cin:   1 + rng.Intn(4),
			Hin:   5 + rng.Intn(8),
			Win:   5 + rng.Intn(8),
			Cout:  1 + rng.Intn(5),
			Hker:  1 + rng.Intn(5),
			Wker:  1 + rng.Intn(5),
			Strid: 1 + rng.Intn(2),
			Pad:   rng.Intn(3),
		}
		if s.Validate() == nil && s.Hout() >= 1 && s.Wout() >= 1 {
			return s
		}
	}
}

// Property: the im2col+GEMM baseline's wet output matches Reference on
// randomized shapes (strides, pads, non-square kernels included).
func TestIm2colGEMMRandomShapesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		s := randomShape(rng)
		in, ker := RandomOperands(s, int64(trial))
		want, err := Reference(s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Im2colGEMM(testArch, s, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Fatalf("%v: wrong result, diff=%g", s, tensor.MaxAbsDiff(got.Output, want))
		}
		dry, err := Im2colGEMMDry(testArch, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counts != dry.Counts {
			t.Fatalf("%v: dry %v != wet %v", s, dry.Counts, got.Counts)
		}
	}
}

// Property: the implicit-GEMM wet output matches Reference on randomized
// shapes and its dry counts equal its wet counts.
func TestImplicitGEMMRandomShapesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 20; trial++ {
		s := randomShape(rng)
		in, ker := RandomOperands(s, int64(100+trial))
		want, err := Reference(s, in, ker)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ImplicitGEMM(testArch, s, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Fatalf("%v: wrong result, diff=%g", s, tensor.MaxAbsDiff(got.Output, want))
		}
		dry, err := ImplicitGEMMDry(testArch, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counts != dry.Counts {
			t.Fatalf("%v: dry %v != wet %v", s, dry.Counts, got.Counts)
		}
	}
}

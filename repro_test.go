package repro

import (
	"math"
	"testing"
)

func testLayer(t *testing.T) Shape {
	t.Helper()
	s, err := NewShape(1, 32, 28, 64, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewShapeValidates(t *testing.T) {
	if _, err := NewShape(0, 3, 28, 8, 3, 1, 0); err == nil {
		t.Error("invalid shape accepted")
	}
	s, err := NewShape(2, 3, 28, 8, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Hout() != 14 {
		t.Errorf("Hout=%d want 14", s.Hout())
	}
}

func TestArchitectures(t *testing.T) {
	if len(Architectures()) < 4 {
		t.Error("catalog too small")
	}
	if _, err := ArchByName("V100"); err != nil {
		t.Error(err)
	}
	if _, err := ArchByName("bogus"); err == nil {
		t.Error("bogus arch accepted")
	}
}

func TestBoundsAndDataflowConsistency(t *testing.T) {
	s := testLayer(t)
	for _, fastMem := range []int{2048, 8192} {
		lb := LowerBoundDirect(s, fastMem)
		df := DataflowIODirect(s, fastMem, 1)
		if lb <= 0 || df <= 0 {
			t.Fatalf("degenerate values lb=%v df=%v", lb, df)
		}
		if df < lb {
			t.Errorf("S=%d: dataflow I/O %v below lower bound %v", fastMem, df, lb)
		}
		wlb := LowerBoundWinograd(s, 2, fastMem)
		wdf := DataflowIOWinograd(s, 2, fastMem, 1)
		if wdf < wlb {
			t.Errorf("S=%d: winograd dataflow I/O %v below bound %v", fastMem, wdf, wlb)
		}
	}
}

func TestOptimalTile(t *testing.T) {
	s := testLayer(t)
	tile := OptimalTileDirect(s, 4096, 1)
	if tile.X < 1 || tile.Y < 1 || tile.Z < 1 {
		t.Fatalf("bad tile %+v", tile)
	}
	if gap := tile.OptimalityGap(s.R()); gap > 0.3 {
		t.Errorf("tile %+v far from optimality condition: gap %v", tile, gap)
	}
}

func TestRunDirectAndVerify(t *testing.T) {
	arch, _ := ArchByName("1080Ti")
	s := testLayer(t)
	in, ker := RandomOperands(s, 42)
	cfg := DefaultDirectConfig(arch, s)
	res, err := RunDirect(arch, s, cfg, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(s, res, in, ker, 2e-3); err != nil {
		t.Error(err)
	}
	if res.Counts.GlobalIO() <= 0 || res.Seconds <= 0 {
		t.Errorf("degenerate result: %+v", res.Counts)
	}
	// Measured I/O must respect the theory.
	if float64(res.Counts.GlobalIO()) < LowerBoundDirect(s, cfg.SharedPerBlock) {
		t.Error("measured I/O below the lower bound")
	}
}

func TestRunWinogradAndVerify(t *testing.T) {
	arch, _ := ArchByName("V100")
	s := testLayer(t)
	in, ker := RandomOperands(s, 43)
	cfg := DefaultWinogradConfig(arch, s, 2)
	res, err := RunWinograd(arch, s, cfg, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(s, res, in, ker, 2e-3); err != nil {
		t.Error(err)
	}
}

func TestMeasureMatchesRun(t *testing.T) {
	arch, _ := ArchByName("TitanX")
	s := testLayer(t)
	in, ker := RandomOperands(s, 44)
	cfg := DefaultDirectConfig(arch, s)
	wet, err := RunDirect(arch, s, cfg, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	dry, err := MeasureDirect(arch, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wet.Counts != dry.Counts {
		t.Errorf("dry counts %v != wet %v", dry.Counts, wet.Counts)
	}
	if math.Abs(wet.Seconds-dry.Seconds) > 1e-12 {
		t.Errorf("dry time %v != wet %v", dry.Seconds, wet.Seconds)
	}
}

func TestLibraryBaselines(t *testing.T) {
	arch, _ := ArchByName("V100")
	s := testLayer(t)
	lib, err := MeasureLibraryDirect(arch, s)
	if err != nil {
		t.Fatal(err)
	}
	wino, err := MeasureLibraryWinograd(arch, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Seconds <= 0 || wino.Seconds <= 0 {
		t.Error("degenerate baseline times")
	}
	// The tuned dataflow must beat the library baseline on this layer.
	tuned, err := TuneKind(arch, s, Direct, TuneOptions{Budget: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.BestM.Seconds > lib.Seconds {
		t.Errorf("tuned %v slower than library %v", tuned.BestM.Seconds, lib.Seconds)
	}
}

func TestTuneWinogradFacade(t *testing.T) {
	arch, _ := ArchByName("V100")
	s := testLayer(t)
	tr, err := TuneKind(arch, s, Winograd, TuneOptions{Budget: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !(tr.BestM.Seconds > 0) {
		t.Error("no winograd config found")
	}
	if tr.Best.WinogradE != 2 && tr.Best.WinogradE != 4 {
		t.Errorf("unexpected e=%d", tr.Best.WinogradE)
	}
}

func TestVerifyRejectsCountOnly(t *testing.T) {
	arch, _ := ArchByName("V100")
	s := testLayer(t)
	in, ker := RandomOperands(s, 45)
	res, err := MeasureDirect(arch, s, DefaultDirectConfig(arch, s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(s, res, in, ker, 1e-3); err == nil {
		t.Error("Verify accepted a count-only result")
	}
}

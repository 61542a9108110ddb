package conv

import (
	"testing"

	"repro/internal/shapes"
	"repro/internal/tensor"
)

func TestImplicitGEMMMatchesReference(t *testing.T) {
	for _, s := range testShapes() {
		in, ker := RandomOperands(s, 11)
		want, _ := Reference(s, in, ker)
		got, err := ImplicitGEMM(testArch, s, in, ker)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !tensor.AllClose(got.Output, want, tol) {
			t.Errorf("%v: implicit gemm differs by %g", s, tensor.MaxAbsDiff(got.Output, want))
		}
	}
}

func TestImplicitGEMMDryMatchesWet(t *testing.T) {
	s := smallShape()
	in, ker := RandomOperands(s, 12)
	wet, err := ImplicitGEMM(testArch, s, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	dry, err := ImplicitGEMMDry(testArch, s)
	if err != nil {
		t.Fatal(err)
	}
	if wet.Counts != dry.Counts {
		t.Errorf("wet %v != dry %v", wet.Counts, dry.Counts)
	}
}

// Implicit GEMM must move strictly less off-chip data than materialized
// im2col (it skips the patch matrix round trip) but more than the
// I/O-optimal tiled dataflow.
func TestImplicitGEMMIOOrdering(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1}
	imp, err := ImplicitGEMMDry(testArch, s)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Im2colGEMMDry(testArch, s)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := DryDirectTiled(testArch, s, DefaultDirectConfig(testArch, s))
	if err != nil {
		t.Fatal(err)
	}
	if !(imp.Counts.GlobalIO() < col.Counts.GlobalIO()) {
		t.Errorf("implicit I/O %d not below im2col %d", imp.Counts.GlobalIO(), col.Counts.GlobalIO())
	}
	if !(tiled.Counts.GlobalIO() < imp.Counts.GlobalIO()) {
		t.Errorf("tiled I/O %d not below implicit %d", tiled.Counts.GlobalIO(), imp.Counts.GlobalIO())
	}
}

package autotune

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// randomGroupedShape draws a random exhaustively-enumerable grouped layer:
// tiny per-group channel extents over a random group count, so every
// applicable space enumerates in full.
func randomGroupedShape(rng *rand.Rand) shapes.ConvShape {
	s := randomSmallShape(rng)
	g := []int{2, 2, 4}[rng.Intn(3)]
	s.Cin = g * (1 + rng.Intn(3))
	s.Cout = g * (1 + rng.Intn(3))
	s.Groups = g
	return s
}

// The admissibility of the pruning oracle on grouped spaces: the
// group-aware bound must stay a floor under every measured time, for every
// kind that admits the layer. A bound computed against the dense shape
// would sit G× too high and fail this immediately.
func TestGroupedBoundSecondsIsAFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	archs := []memsim.Arch{memsim.V100, memsim.GTX1080Ti, memsim.GFX906}
	for trial := 0; trial < 8; trial++ {
		assertFloorChain(t, randomGroupedShape(rng), archs[trial%len(archs)])
	}
}

// Pruning on grouped spaces preserves the full-enumeration optimum — the
// branch-and-bound walk over a shuffled visit order ends on exactly the
// brute-force best, for every applicable kind.
func TestGroupedPruningNeverDiscardsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	archs := []memsim.Arch{memsim.V100, memsim.TitanX, memsim.GFX906}
	for trial := 0; trial < 8; trial++ {
		s := randomGroupedShape(rng)
		a := archs[rng.Intn(len(archs))]
		for _, sp := range boundTestSpaces(t, s, a) {
			mm := NewMemoMeasure(a, s, sp.Kind)
			var all []conv.Config
			sp.enumerate(func(c conv.Config) bool {
				all = append(all, c)
				return true
			})
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

			var bruteBest, bbBest conv.Config
			bruteSec, bbSec := math.Inf(1), math.Inf(1)
			for _, c := range all {
				if m, ok := mm.Measure(c); ok && m.Seconds < bruteSec {
					bruteSec, bruteBest = m.Seconds, c
				}
			}
			for _, c := range all {
				if !math.IsInf(bbSec, 1) && sp.BoundSeconds(c) > bbSec {
					continue
				}
				if m, ok := mm.Measure(c); ok && m.Seconds < bbSec {
					bbSec, bbBest = m.Seconds, c
				}
			}
			if math.IsInf(bruteSec, 1) {
				continue
			}
			if bbSec != bruteSec || bbBest != bruteBest {
				t.Fatalf("%s %v %s: branch-and-bound best %v (%.6g) != brute-force best %v (%.6g)",
					a.Name, s, sp.Kind, bbBest, bbSec, bruteBest, bruteSec)
			}
		}
	}
}

// The regression the grouped fix pins: a depthwise layer's tuned
// measurement accounts exactly 1/G of its dense twin's flops. Before the
// fix the tuner saw the batch-folded dense shape and both columns agreed —
// the depthwise layer was being tuned (and billed) as a dense convolution.
func TestDepthwiseTunedFlopsAreOneOverG(t *testing.T) {
	const g = 32
	dw := shapes.ConvShape{Batch: 1, Cin: 32, Hin: 28, Win: 28, Cout: 32,
		Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: g}
	dense := dw
	dense.Groups = 1
	if got, want := dw.FLOPs(), dense.FLOPs()/g; got != want {
		t.Fatalf("grouped shape FLOPs %d, want dense/G = %d", got, want)
	}
	for _, tc := range []struct {
		name string
		s    shapes.ConvShape
	}{{"depthwise", dw}, {"dense", dense}} {
		sp, err := NewSpace(tc.s, arch, Direct, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Tune(sp, KindMeasurer(arch, tc.s, Direct), smallOpts(32, 5))
		if err != nil {
			t.Fatal(err)
		}
		// The verdict's launch counts the flops its measurement billed.
		counts, _, _, err := Direct.Phase(arch, tc.s, tr.Best)
		if err != nil {
			t.Fatal(err)
		}
		if counts.Flops != tc.s.FLOPs() {
			t.Errorf("%s: tuned measurement accounts %d flops, shape has %d",
				tc.name, counts.Flops, tc.s.FLOPs())
		}
	}
}

// Per-layer kernel choice on a depthwise + pointwise pair: TuneNetwork with
// the full candidate set returns verdicts whose chosen kinds are legal for
// each layer, and the mixed-kind network time is no worse than the
// direct-only run at the same budget — widening the candidate set can only
// help, since every layer keeps its fastest verdict.
func TestTuneNetworkGroupedKindChoice(t *testing.T) {
	layers := []NetworkLayer{
		{Name: "dw", Repeat: 1, Shape: shapes.ConvShape{Batch: 1, Cin: 16, Hin: 14, Win: 14,
			Cout: 16, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 16}},
		{Name: "pw", Repeat: 1, Shape: shapes.ConvShape{Batch: 1, Cin: 16, Hin: 14, Win: 14,
			Cout: 32, Hker: 1, Wker: 1, Strid: 1, Pad: 0}},
	}
	opts := NetworkOptions{Tune: smallOpts(24, 3)}
	directOnly, err := TuneNetwork(arch, layers, NewCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Winograd = true
	opts.Kinds = []Kind{FFT, ImplicitGEMM}
	mixed, err := TuneNetwork(arch, layers, NewCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mixed {
		legal := false
		for _, k := range CandidateKinds(layers[i].Shape, true, opts.Kinds) {
			if v.Kind == k {
				legal = true
			}
		}
		if !legal {
			t.Errorf("layer %s: chosen kind %s not in its candidate set", layers[i].Name, v.Kind)
		}
	}
	if got, want := NetworkSeconds(mixed), NetworkSeconds(directOnly); got > want {
		t.Errorf("mixed-kind network %.6gs worse than direct-only %.6gs at equal budget", got, want)
	}
}

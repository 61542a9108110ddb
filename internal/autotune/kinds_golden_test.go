package autotune

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// The "nothing moved" golden of the dataflow kinds: testdata/kinds.golden
// was written from the tree before the per-kind switches were folded into
// the kind table (kinds.go), and pins everything a kind decides — the axes
// of its space, its seeds, features, floors, measurements, analytic
// ranking, schedule text, the sweep's candidate policy and a whole tuning
// run. Floats are printed in their shortest round-trip form, so a one-ulp
// move fails the comparison. Regenerate with
//
//	go test ./internal/autotune -run TestKindsGolden -update
//
// only for a change that is meant to move one of these.
var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current tree")

type goldenShape struct {
	name string
	s    shapes.ConvShape
}

// goldenShapes are the layer signatures the kinds treat differently: the
// paper's dense 3×3 (every kind applies), a strided 5×5 (no Winograd, FFT
// gated out of the sweep), a depthwise layer (grouped channel axes) and an
// odd 13×13 output (Winograd's rounded-up sub-tile grid).
var goldenShapes = []goldenShape{
	{"dense3x3s1", shapes.ConvShape{Batch: 1, Cin: 16, Hin: 14, Win: 14, Cout: 16, Hker: 3, Wker: 3, Strid: 1, Pad: 1}},
	{"5x5s2", shapes.ConvShape{Batch: 2, Cin: 8, Hin: 27, Win: 27, Cout: 12, Hker: 5, Wker: 5, Strid: 2, Pad: 2}},
	{"depthwise", shapes.ConvShape{Batch: 1, Cin: 32, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 32}},
	{"odd13", shapes.ConvShape{Batch: 1, Cin: 4, Hin: 13, Win: 13, Cout: 8, Hker: 3, Wker: 3, Strid: 1, Pad: 1}},
}

func goldenFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = goldenFloat(v)
	}
	return strings.Join(parts, ",")
}

// goldenConfig writes everything the engine derives from one configuration.
func goldenConfig(b *bytes.Buffer, sp *Space, mm *MemoMeasure, tag string, c conv.Config) {
	m, ok := mm.Measure(c)
	fmt.Fprintf(b, "  %s %+v\n    features %s\n    bound %s floor %s measure %s %v\n",
		tag, c, goldenFloats(sp.FeaturesInto(nil, c)),
		goldenFloat(sp.BoundSeconds(c)), goldenFloat(sp.analyticFloor(c)),
		goldenFloat(m.Seconds), ok)
}

func goldenSpace(b *bytes.Buffer, arch memsim.Arch, kind Kind, name string, s shapes.ConvShape, pruned bool) {
	fmt.Fprintf(b, "space %s %s pruned=%v\n", kind, name, pruned)
	sp, err := NewSpace(s, arch, kind, 2, pruned)
	if err != nil {
		fmt.Fprintf(b, "  error %v\n", err)
		return
	}
	mm := NewMemoMeasure(arch, s, kind)
	fmt.Fprintf(b, "  size %d\n", sp.Size())
	seeds := sp.SeedConfigs()
	for i, c := range seeds {
		goldenConfig(b, sp, mm, fmt.Sprintf("seed[%d]", i), c)
	}
	i := 0
	sp.enumerate(func(c conv.Config) bool {
		if i < 25 || i%997 == 0 {
			goldenConfig(b, sp, mm, fmt.Sprintf("enum[%d]", i), c)
		}
		i++
		return true
	})
	top, err := sp.AnalyticTop(3, 1)
	if err != nil {
		fmt.Fprintf(b, "  analytic error %v\n", err)
	}
	for i, v := range top {
		fmt.Fprintf(b, "  analytic[%d] %+v floor %s seconds %s\n",
			i, v.Config, goldenFloat(v.Floor), goldenFloat(v.Seconds))
	}
	if len(seeds) > 0 {
		fmt.Fprintf(b, "  schedule of seed[0]:\n")
		for _, line := range strings.Split(strings.TrimRight(EmitSchedule(kind, s, seeds[0]), "\n"), "\n") {
			fmt.Fprintf(b, "    | %s\n", line)
		}
	}
}

func goldenCandidates(b *bytes.Buffer) {
	// The sweep's gates look at kernel extent and stride only, so three more
	// signatures cover their edges: 1×1, an FFT-eligible 5×5, a non-square kernel.
	shapeSet := append(goldenShapes[:len(goldenShapes):len(goldenShapes)],
		goldenShape{"pointwise", shapes.ConvShape{Batch: 1, Cin: 16, Hin: 14, Win: 14, Cout: 16, Hker: 1, Wker: 1, Strid: 1}},
		goldenShape{"5x5s1", shapes.ConvShape{Batch: 1, Cin: 8, Hin: 14, Win: 14, Cout: 8, Hker: 5, Wker: 5, Strid: 1, Pad: 2}},
		goldenShape{"3x5s1", shapes.ConvShape{Batch: 1, Cin: 8, Hin: 14, Win: 14, Cout: 8, Hker: 3, Wker: 5, Strid: 1, Pad: 1}})
	subsets := [][]Kind{
		nil,
		{Direct},
		{Winograd},
		{FFT},
		{ImplicitGEMM},
		{FFT, ImplicitGEMM},
		{Direct, Winograd, FFT, ImplicitGEMM},
		// Request order must not leak into the candidate order (it decides
		// which search is a layer's mandatory first task).
		{ImplicitGEMM, FFT, Winograd},
		{FFT, FFT},
	}
	for _, sh := range shapeSet {
		for _, winograd := range []bool{false, true} {
			for _, kinds := range subsets {
				fmt.Fprintf(b, "candidates %s winograd=%v kinds=%v -> %v\n",
					sh.name, winograd, kinds, CandidateKinds(sh.s, winograd, kinds))
			}
		}
	}
}

func goldenTune(b *bytes.Buffer, arch memsim.Arch, kind Kind) error {
	s := goldenShapes[0].s
	sp, err := NewSpace(s, arch, kind, 2, true)
	if err != nil {
		return err
	}
	opts := DefaultOptions()
	opts.Budget = 48
	opts.Seed = 3
	tr, err := Tune(sp, NewMemoMeasure(arch, s, kind).Measure, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "tune %s best %+v seconds %s measurements %d pruned %d convergedAt %d stop %v history %016x\n",
		kind, tr.Best, goldenFloat(tr.BestM.Seconds),
		tr.Measurements, tr.Pruned, tr.ConvergedAt, tr.Stop, goldenHistoryHash(tr.History))
	return nil
}

// goldenHistoryHash folds a measurement stream into one word.
func goldenHistoryHash(hist []MeasuredConfig) uint64 {
	h := fnv.New64a()
	for _, mc := range hist {
		fmt.Fprintf(h, "%+v %s %v\n", mc.Config, goldenFloat(mc.M.Seconds), mc.OK)
	}
	return h.Sum64()
}

func TestKindsGolden(t *testing.T) {
	arch := memsim.V100
	var b bytes.Buffer
	fmt.Fprintf(&b, "kinds %v\n", Kinds)
	for _, k := range Kinds {
		parsed, err := ParseKind(k.String())
		fmt.Fprintf(&b, "kind %d %q parses to %d (%v)\n", k, k, parsed, err)
	}
	_, err := ParseKind("karatsuba")
	fmt.Fprintf(&b, "kind \"karatsuba\": %v\n", err)
	for _, kind := range Kinds {
		for _, sh := range goldenShapes {
			for _, pruned := range []bool{true, false} {
				goldenSpace(&b, arch, kind, sh.name, sh.s, pruned)
			}
		}
	}
	goldenCandidates(&b)
	for _, kind := range Kinds {
		if err := goldenTune(&b, arch, kind); err != nil {
			t.Fatal(err)
		}
	}

	checkGolden(t, "kinds.golden", b.Bytes())
}

// checkGolden compares got with testdata/<name> byte for byte and names the
// first line that moved; with -update it rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s moved at line %d:\n got %s\nwant %s", name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s moved: %d lines, want %d", name, len(gotLines), len(wantLines))
}

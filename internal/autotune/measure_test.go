package autotune

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// unmemoizedMeasurer is the pre-memo measurement path: one full evaluation
// by the kind's conv reference evaluator (the row's dry) per call. The memo
// must reproduce it bit-exactly — which also catches a mis-assembled row,
// a dry that does not match its validate/counts/launch.
func unmemoizedMeasurer(arch memsim.Arch, s shapes.ConvShape, kind Kind) Measurer {
	return func(c conv.Config) (Measurement, bool) {
		res, err := kind.spec().dry(arch, s, c)
		if err != nil || math.IsInf(res.Seconds, 1) {
			return Measurement{}, false
		}
		return Measurement{Seconds: res.Seconds}, true
	}
}

// testConfigs draws a mixed bag of configurations: the space's seeds, random
// admissible samples, and mutations that may be invalid (wrong Sb, huge
// tiles) — the memo must agree with the unmemoized path on all of them.
func testConfigs(t *testing.T, sp *Space, n int, seed int64) []conv.Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfgs := sp.SeedConfigs()
	for i := 0; i < n; i++ {
		c := sp.Sample(rng)
		cfgs = append(cfgs, c)
		// Thread/Sb/layout variants of the same tile exercise the shared
		// counts entry; the mutations below may be invalid on purpose.
		v := c
		v.ThreadsX, v.ThreadsY, v.ThreadsZ = 1, 1, 1
		cfgs = append(cfgs, v)
		v = c
		v.SharedPerBlock = 64
		cfgs = append(cfgs, v)
		v = c
		v.Layout = (v.Layout + 1) % 3
		cfgs = append(cfgs, v)
		v = c
		v.TileZ = sp.Shape.Cout * 4
		cfgs = append(cfgs, v)
	}
	return cfgs
}

// The memoized measurer must be bit-identical to the unmemoized dry path on
// every config — valid or not — across kinds, layouts and architectures,
// including re-evaluations served from the memo. The benchmark's oracle
// relies on exactly this: it re-measures served verdicts through Kind.Dry.
// Kind.Phase must decompose the same number: fixed launches plus the time
// model on the tunable launch is the dry evaluator's Seconds.
func TestMemoMeasureMatchesUnmemoized(t *testing.T) {
	cases := []struct {
		arch memsim.Arch
		s    shapes.ConvShape
		kind Kind
		e    int
	}{
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, Direct, 0},
		{memsim.GTX1080Ti, shapes.ConvShape{Batch: 2, Cin: 8, Hin: 27, Win: 27, Cout: 24, Hker: 5, Wker: 5, Strid: 2, Pad: 2}, Direct, 0},
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, Winograd, 2},
		{memsim.GFX906, shapes.ConvShape{Batch: 1, Cin: 4, Hin: 13, Win: 13, Cout: 8, Hker: 3, Wker: 3, Strid: 1}, Winograd, 2},
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, FFT, 0},
		{memsim.GTX1080Ti, shapes.ConvShape{Batch: 2, Cin: 8, Hin: 27, Win: 27, Cout: 24, Hker: 5, Wker: 5, Strid: 1, Pad: 2}, FFT, 0},
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, ImplicitGEMM, 0},
		{memsim.GFX906, shapes.ConvShape{Batch: 2, Cin: 8, Hin: 27, Win: 27, Cout: 24, Hker: 5, Wker: 5, Strid: 2, Pad: 2}, ImplicitGEMM, 0},
		// Depthwise: the channel axes, counts and FFT fixed phases are per group.
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 32, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 32}, Direct, 0},
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 32, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 32}, FFT, 0},
		{memsim.V100, shapes.ConvShape{Batch: 1, Cin: 32, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 32}, ImplicitGEMM, 0},
	}
	for _, tc := range cases {
		sp, err := NewSpace(tc.s, tc.arch, tc.kind, tc.e, true)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemoMeasure(tc.arch, tc.s, tc.kind)
		raw := unmemoizedMeasurer(tc.arch, tc.s, tc.kind)
		cfgs := testConfigs(t, sp, 40, 11)
		// Two passes: the second is served entirely from the memo.
		for pass := 0; pass < 2; pass++ {
			for _, c := range cfgs {
				gm, gok := memo.Measure(c)
				wm, wok := raw(c)
				if gok != wok || gm != wm {
					t.Fatalf("%s %v pass %d %v: memo (%v, %v) != raw (%v, %v)",
						tc.arch.Name, tc.kind, pass, c, gm, gok, wm, wok)
				}
				counts, l, fixed, err := tc.kind.Phase(tc.arch, tc.s, c)
				if dry, derr := tc.kind.Dry(tc.arch, tc.s, c); (err == nil) != (derr == nil) {
					t.Fatalf("%s %v %v: Phase error %v, Dry error %v", tc.arch.Name, tc.kind, c, err, derr)
				} else if err == nil && fixed+tc.arch.Time(counts, l) != dry.Seconds {
					t.Fatalf("%s %v %v: fixed %v + tunable %v != dry %v",
						tc.arch.Name, tc.kind, c, fixed, tc.arch.Time(counts, l), dry.Seconds)
				}
			}
		}
		if memo.Len() == 0 {
			t.Fatalf("%s %v: memo never populated", tc.arch.Name, tc.kind)
		}
	}
}

// Concurrent callers hammering one memo (the executor's access pattern with
// Workers > 1) must all observe the same results as a serial evaluation.
// Run under -race in CI.
func TestMemoMeasureConcurrent(t *testing.T) {
	arch := memsim.V100
	s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemoMeasure(arch, s, Direct)
	raw := unmemoizedMeasurer(arch, s, Direct)
	cfgs := testConfigs(t, sp, 30, 7)

	want := make([]Measurement, len(cfgs))
	wantOK := make([]bool, len(cfgs))
	for i, c := range cfgs {
		want[i], wantOK[i] = raw(c)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the configs in a different order.
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 4*len(cfgs); it++ {
				i := rng.Intn(len(cfgs))
				m, ok := memo.Measure(cfgs[i])
				if ok != wantOK[i] || m != want[i] {
					errs <- cfgs[i].String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent memo measurement diverged on %s", bad)
	}
}

// A whole tuning run driven by the memoized measurer must be bit-identical
// to the same run on the unmemoized path: same best config, same curve.
func TestTuneWithMemoBitIdentical(t *testing.T) {
	arch := memsim.V100
	s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	opts := DefaultOptions()
	opts.Budget = 48
	opts.Patience = 0

	for _, kind := range []Kind{Direct, Winograd} {
		e := 0
		if kind == Winograd {
			e = 2
		}
		sp, err := NewSpace(s, arch, kind, e, true)
		if err != nil {
			t.Fatal(err)
		}
		memoTrace, err := Tune(sp, NewMemoMeasure(arch, s, kind).Measure, opts)
		if err != nil {
			t.Fatal(err)
		}
		rawTrace, err := Tune(sp, unmemoizedMeasurer(arch, s, kind), opts)
		if err != nil {
			t.Fatal(err)
		}
		if memoTrace.Best != rawTrace.Best || memoTrace.BestM != rawTrace.BestM ||
			memoTrace.ConvergedAt != rawTrace.ConvergedAt {
			t.Fatalf("%v: memo trace %+v diverges from raw %+v", kind, memoTrace, rawTrace)
		}
		if !slices.Equal(memoTrace.History, rawTrace.History) {
			t.Fatalf("%v: memo history diverges from raw", kind)
		}
	}
}

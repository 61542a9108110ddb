package autotune

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// randomSmallShape draws a random exhaustively-enumerable layer: tiny
// channel/spatial extents with random kernel, stride, padding and batch.
func randomSmallShape(rng *rand.Rand) shapes.ConvShape {
	k := []int{1, 3, 3, 5}[rng.Intn(4)]
	s := shapes.ConvShape{
		Batch: 1 + rng.Intn(2),
		Cin:   2 + rng.Intn(6),
		Hin:   k + 3 + rng.Intn(8),
		Cout:  3 + rng.Intn(8),
		Hker:  k, Wker: k,
		Strid: 1 + rng.Intn(2),
		Pad:   rng.Intn(k/2 + 1),
	}
	s.Win = s.Hin
	return s
}

// boundTestSpaces builds every applicable (kind, space) for a shape — the
// same candidate filter the network tuner applies, so FFT and implicit-GEMM
// spaces are exercised exactly where they would actually be searched.
func boundTestSpaces(t *testing.T, s shapes.ConvShape, a memsim.Arch) []*Space {
	t.Helper()
	var sps []*Space
	for _, kind := range CandidateKinds(s, true, []Kind{FFT, ImplicitGEMM}) {
		sp, err := NewSpace(s, a, kind, 2, false)
		if err != nil {
			continue
		}
		sps = append(sps, sp)
	}
	return sps
}

// assertFloorChain enumerates every applicable kind's space for s on a and
// asserts, for each configuration that measures, the ordering the floor's
// one body states: pruning floor ≤ tight floor ≤ measured time.
func assertFloorChain(t *testing.T, s shapes.ConvShape, a memsim.Arch) {
	t.Helper()
	for _, sp := range boundTestSpaces(t, s, a) {
		mm := NewMemoMeasure(a, s, sp.Kind)
		checked := 0
		sp.enumerate(func(c conv.Config) bool {
			m, ok := mm.Measure(c)
			if !ok {
				return true
			}
			checked++
			lb, tight := sp.BoundSeconds(c), sp.analyticFloor(c)
			if !(lb > 0) || lb > tight || tight > m.Seconds {
				t.Fatalf("%s %v %s: want 0 < bound %.6g ≤ tight floor %.6g ≤ measured %.6g for %v",
					a.Name, s, sp.Kind, lb, tight, m.Seconds, c)
			}
			return true
		})
		if checked == 0 {
			t.Fatalf("%s %v %s: no measurable configs", a.Name, s, sp.Kind)
		}
	}
}

// The admissibility of both floors: BoundSeconds — the pruning oracle — must
// never exceed the measured time of any configuration that measures
// successfully, otherwise branch-and-bound could discard an optimum; and the
// tight floor between them must hold on arbitrary configurations, not only
// on analytic winners, because calibration and the benchmark's bound_gap
// evaluate it there. Checked by full enumeration over randomized small
// shapes, every applicable kind.
func TestBoundSecondsIsAFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	archs := []memsim.Arch{memsim.V100, memsim.GTX1080Ti, memsim.GFX906}
	for trial := 0; trial < 8; trial++ {
		assertFloorChain(t, randomSmallShape(rng), archs[trial%len(archs)])
	}
}

// The compulsory term at the traffic level: every configuration of the
// Direct, Winograd and implicit-GEMM spaces must move at least
// bounds.CompulsoryTraffic off chip — its counts write every output and read
// every weight and every input some window reads. Seeded small shapes,
// strided, grouped and depthwise among them, and draws of their own at
// strides 3–4 with kernels narrower than, equal to and wider than the
// stride, padded, where whole rows and columns go unread; each
// configuration's counts are the ones a measurement of it prices.
func TestCompulsoryTrafficIsAFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := memsim.V100
	kinds := []Kind{Direct, Winograd, ImplicitGEMM}
	var checked, checkedWide [len(kindTable)]int
	check := func(s shapes.ConvShape, checked *[len(kindTable)]int) {
		c := bounds.CompulsoryTraffic(s)
		for _, kind := range kinds {
			sp, err := NewSpace(s, a, kind, 2, false)
			if err != nil {
				continue
			}
			sp.enumerate(func(cfg conv.Config) bool {
				counts, _, _, err := kind.Phase(a, s, cfg)
				if err != nil {
					return true
				}
				checked[kind]++
				if io := float64(counts.GlobalIO()); io < c {
					t.Fatalf("%v %s %v: off-chip traffic %v < compulsory %v", s, kind, cfg, io, c)
				}
				return true
			})
		}
	}
	for trial := 0; trial < 24; trial++ {
		s := randomSmallShape(rng)
		switch trial % 3 {
		case 1:
			s = randomGroupedShape(rng)
		case 2:
			s.Cout, s.Groups = s.Cin, s.Cin // depthwise
		}
		check(s, &checked)
	}
	wide := rand.New(rand.NewSource(56))
	for trial := 0; trial < 12; trial++ {
		mu := 3 + wide.Intn(2)
		k := [...]int{1 + wide.Intn(mu-1), mu, mu + 1 + wide.Intn(2)}[trial%3] // k < μ, k = μ, k > μ
		s := shapes.ConvShape{
			Batch: 1 + wide.Intn(2),
			Cin:   2 + wide.Intn(6),
			Hin:   k + wide.Intn(3*mu),
			Win:   k + wide.Intn(3*mu),
			Cout:  3 + wide.Intn(8),
			Hker:  k, Wker: k,
			Strid: mu,
			Pad:   wide.Intn(k),
		}
		check(s, &checkedWide)
	}
	for _, kind := range kinds {
		if checked[kind] == 0 {
			t.Errorf("%s: no configuration checked", kind)
		}
	}
	for _, kind := range []Kind{Direct, ImplicitGEMM} {
		if checkedWide[kind] == 0 {
			t.Errorf("%s: no configuration checked at strides 3–4", kind)
		}
	}
}

// The branch-and-bound property itself: walking the whole space while
// skipping every candidate whose bound exceeds the incumbent must end on
// exactly the brute-force optimum — pruning saves measurements, never
// quality. Randomized shapes and visit orders.
func TestPruningNeverDiscardsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	archs := []memsim.Arch{memsim.V100, memsim.TitanX, memsim.GFX906}
	totalPruned := 0
	for trial := 0; trial < 10; trial++ {
		s := randomSmallShape(rng)
		a := archs[rng.Intn(len(archs))]
		for _, sp := range boundTestSpaces(t, s, a) {
			mm := NewMemoMeasure(a, s, sp.Kind)
			var all []conv.Config
			sp.enumerate(func(c conv.Config) bool {
				all = append(all, c)
				return true
			})
			// A randomized visit order exercises pruning against different
			// incumbent sequences than the enumeration's.
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

			var bruteBest, bbBest conv.Config
			bruteSec, bbSec := math.Inf(1), math.Inf(1)
			pruned := 0
			for _, c := range all {
				if m, ok := mm.Measure(c); ok && m.Seconds < bruteSec {
					bruteSec, bruteBest = m.Seconds, c
				}
			}
			for _, c := range all {
				if !math.IsInf(bbSec, 1) && sp.BoundSeconds(c) > bbSec {
					pruned++
					continue
				}
				if m, ok := mm.Measure(c); ok && m.Seconds < bbSec {
					bbSec, bbBest = m.Seconds, c
				}
			}
			if math.IsInf(bruteSec, 1) {
				continue // space with no measurable config
			}
			if bbSec != bruteSec || bbBest != bruteBest {
				t.Fatalf("%s %v %s: branch-and-bound best %v (%.6g) != brute-force best %v (%.6g), pruned=%d",
					a.Name, s, sp.Kind, bbBest, bbSec, bruteBest, bruteSec, pruned)
			}
			totalPruned += pruned
		}
	}
	if totalPruned == 0 {
		t.Error("pruning never engaged across all trials; the oracle is vacuous")
	}
}

// The engine must actually use the filter: on AlexNet conv2 (a layer where
// the Section-5 seed is strong, so the bound proves most of the space
// non-improving) a default Tune skips candidates, while NoPrune skips none.
func TestTunePrunesCandidates(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 256, Hker: 5, Wker: 5, Strid: 1, Pad: 2}
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	measure := KindMeasurer(arch, s, Direct)
	opts := DefaultOptions()
	opts.Budget = 96
	opts.Patience = 32
	tr, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pruned == 0 {
		t.Error("default Tune pruned nothing on a layer where the bound bites")
	}
	opts.NoPrune = true
	off, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if off.Pruned != 0 {
		t.Errorf("NoPrune run still pruned %d candidates", off.Pruned)
	}
}

// traceEqual compares every field of two traces — the full measurement
// history included, since the history is what PutTrace
// persists and a resumed search replays; worker-count determinism must
// cover it too.
func traceEqual(a, b *Trace) bool {
	if a.Method != b.Method || a.Best != b.Best || a.BestM != b.BestM ||
		a.Measurements != b.Measurements || a.ConvergedAt != b.ConvergedAt ||
		a.Pruned != b.Pruned || a.Budget != b.Budget || a.Stop != b.Stop || a.GapRef != b.GapRef || a.Waived != b.Waived ||
		len(a.History) != len(b.History) {
		return false
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			return false
		}
	}
	return true
}

// The new engine stays bit-identical across worker counts and repeated
// runs, with pruning enabled and disabled — including the Pruned counter.
// With pruning the certificate stops the search mid-run, on the same booked
// measurement at every worker count; bound-blind, it spends the budget.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	for _, noPrune := range []bool{false, true} {
		opts := smallOpts(120, 11)
		opts.NoPrune = noPrune
		ref, err := Tune(sp, measure, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := StopCertified
		if noPrune {
			want = StopBudget
		}
		if ref.Stop != want || (want == StopCertified) != (ref.Measurements < opts.Budget) {
			t.Fatalf("noPrune=%v: stopped on %v at %d of %d measurements, want %v",
				noPrune, ref.Stop, ref.Measurements, opts.Budget, want)
		}
		for _, workers := range []int{1, 4, 9} {
			o := opts
			o.Workers = workers
			tr, err := Tune(sp, measure, o)
			if err != nil {
				t.Fatal(err)
			}
			if !traceEqual(ref, tr) {
				t.Errorf("noPrune=%v workers=%d: trace diverges (best %v vs %v, pruned %d vs %d, stop %v vs %v)",
					noPrune, workers, tr.Best, ref.Best, tr.Pruned, ref.Pruned, tr.Stop, ref.Stop)
			}
		}
	}
}

// The bound memo and the cached Size are shared mutable state of a Space;
// hammer them from many goroutines (run under -race in CI).
func TestBoundMemoConcurrent(t *testing.T) {
	sp := mustSpace(t, true)
	serial := make(map[conv.Config]float64)
	rng := rand.New(rand.NewSource(7))
	cfgs := make([]conv.Config, 200)
	for i := range cfgs {
		cfgs[i] = sp.Sample(rng)
		serial[cfgs[i]] = sp.BoundSeconds(cfgs[i])
	}
	wantSize := sp.Size()

	fresh := mustSpace(t, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, c := range cfgs {
				if got := fresh.BoundSeconds(c); got != serial[c] {
					t.Errorf("worker %d cfg %d: concurrent bound %v != serial %v", w, i, got, serial[c])
					return
				}
			}
			if got := fresh.Size(); got != wantSize {
				t.Errorf("worker %d: concurrent Size %d != %d", w, got, wantSize)
			}
		}(w)
	}
	wg.Wait()
}

// Size is computed once and stable thereafter.
func TestSizeCached(t *testing.T) {
	sp := mustSpace(t, true)
	a, b := sp.Size(), sp.Size()
	if a != b || a <= 0 {
		t.Fatalf("Size unstable or empty: %d then %d", a, b)
	}
	// The cache must agree with a fresh enumeration.
	var n int64
	sp.enumerate(func(conv.Config) bool { n++; return true })
	if n != a {
		t.Fatalf("cached Size %d != enumerated %d", a, n)
	}
}

// Where the Winograd floor's slack lies: at the enumerated Winograd optimum
// of each ResNet-18 3×3 shape that admits it on V100, the measured shared
// term is never the largest, so a shared-traffic bound (the theorem one
// level down) would not raise the floor there. The slack is in the traffic
// and arithmetic terms, which the test logs beside the floor's.
func TestWinogradSlackIsNotShared(t *testing.T) {
	probed := 0
	for _, l := range resnet18Layers() {
		s := l.Shape
		if s.Hker != 3 || !s.WinogradOK() {
			continue
		}
		sp, err := NewSpace(s, memsim.V100, Winograd, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		mm := NewMemoMeasure(sp.Arch, s, Winograd)
		var best conv.Config
		bestSec := math.Inf(1)
		sp.enumerate(func(c conv.Config) bool {
			if m, ok := mm.Measure(c); ok && m.Seconds < bestSec {
				best, bestSec = c, m.Seconds
			}
			return true
		})
		counts, launch, _, err := Winograd.Phase(sp.Arch, s, best)
		if err != nil {
			t.Fatal(err)
		}
		b := sp.Arch.Explain(counts, launch)
		r, ok := sp.Arch.Rates(launch)
		if !ok {
			t.Fatalf("%v: optimum %v cannot launch", s, best)
		}
		ft := sp.floorTerms(best.SharedPerBlock, best.WinogradE)
		traffic := ft.q * 4 / (sp.Arch.BandwidthGBs * 1e9 * r.Eff)
		arith := ft.arith / (sp.Arch.PeakGFLOPS * 1e9 * r.Hide)
		t.Logf("%v at %v: measured %.3g µs (global %.3g, shared %.3g, compute %.3g, sched %.3g); floor %.3g µs (traffic %.3g, arithmetic %.3g)",
			s, best, b.Total*1e6, b.Global*1e6, b.Shared*1e6, b.Compute*1e6, b.Overhead*1e6,
			sp.analyticFloor(best)*1e6, traffic*1e6, arith*1e6)
		if b.Shared >= max(b.Global, b.Compute) {
			t.Errorf("%v: the shared term %v is the largest at the optimum %v (%v)", s, b.Shared, best, b)
		}
		probed++
	}
	if probed == 0 {
		t.Fatal("no shape probed: the property is vacuous")
	}
}

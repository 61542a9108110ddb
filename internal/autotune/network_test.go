package autotune

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// TestTuneWorkersDeterministic is the executor's contract: the same seed
// and budget yield a bit-identical trace (best config, curve, convergence
// point) whether the batch is measured by 1 goroutine or 8.
func TestTuneWorkersDeterministic(t *testing.T) {
	s := layer()
	measure := KindMeasurer(arch, s, Direct)
	run := func(workers int) *Trace {
		sp := mustSpace(t, true)
		opts := smallOpts(64, 7)
		opts.Workers = workers
		tr, err := Tune(sp, measure, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tr
	}
	t1, t8 := run(1), run(8)
	if t1.Best != t8.Best {
		t.Errorf("best config differs: workers=1 %v, workers=8 %v", t1.Best, t8.Best)
	}
	if t1.BestM != t8.BestM {
		t.Errorf("best measurement differs: %v vs %v", t1.BestM, t8.BestM)
	}
	if t1.Measurements != t8.Measurements || t1.ConvergedAt != t8.ConvergedAt {
		t.Errorf("bookkeeping differs: (%d,%d) vs (%d,%d)",
			t1.Measurements, t1.ConvergedAt, t8.Measurements, t8.ConvergedAt)
	}
	if !reflect.DeepEqual(t1.History, t8.History) {
		t.Error("measurement histories differ across worker counts")
	}
}

func resnetBlockLayers() []NetworkLayer {
	c := func(cin, hw, cout, k, stride, pad int) shapes.ConvShape {
		return shapes.ConvShape{Batch: 1, Cin: cin, Hin: hw, Win: hw, Cout: cout,
			Hker: k, Wker: k, Strid: stride, Pad: pad}
	}
	return []NetworkLayer{
		{Name: "stage2_down", Shape: c(64, 56, 128, 3, 2, 1), Repeat: 1},
		{Name: "stage2_a", Shape: c(128, 28, 128, 3, 1, 1), Repeat: 1},
		{Name: "stage2_b", Shape: c(128, 28, 128, 3, 1, 1), Repeat: 1}, // same key as stage2_a
		{Name: "stage2_proj", Shape: c(64, 56, 128, 1, 2, 0), Repeat: 1},
		{Name: "stage2_c", Shape: c(128, 28, 128, 3, 1, 1), Repeat: 1}, // same key again
	}
}

// TestTuneNetworkDedupAndDeterminism: identical shape keys share one
// search, and the verdict list is identical at any layer-worker count.
func TestTuneNetworkDedupAndDeterminism(t *testing.T) {
	layers := resnetBlockLayers()
	opts := NetworkOptions{Tune: smallOpts(24, 3)}
	run := func(workers int) []LayerVerdict {
		o := opts
		o.Workers = workers
		v, err := TuneNetwork(arch, layers, NewCache(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return v
	}
	v1, v8 := run(1), run(8)
	for i := range layers {
		if v1[i].Config != v8[i].Config || v1[i].M != v8[i].M || v1[i].Kind != v8[i].Kind {
			t.Errorf("layer %s: verdict differs across worker counts: %+v vs %+v",
				layers[i].Name, v1[i], v8[i])
		}
	}
	// The three stage2 body layers have one shape key: identical verdicts,
	// and exactly one of them ran its own search.
	owned := 0
	for _, i := range []int{1, 2, 4} {
		if v8[i].Config != v8[1].Config || v8[i].M != v8[1].M {
			t.Errorf("duplicate-shape layer %s got a different verdict", layers[i].Name)
		}
		if !v8[i].Shared {
			owned++
		}
	}
	if owned != 1 {
		t.Errorf("want exactly 1 owned search among duplicate layers, got %d", owned)
	}
}

// TestTuneNetworkSharedCache: a second run against the same cache is all
// cache hits — no layer searches again.
func TestTuneNetworkSharedCache(t *testing.T) {
	layers := resnetBlockLayers()
	cache := NewCache()
	opts := NetworkOptions{Tune: smallOpts(24, 3), Workers: 4}
	first, err := TuneNetwork(arch, layers, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := TuneNetwork(arch, layers, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range layers {
		if !second[i].Shared {
			t.Errorf("layer %s searched again despite warm cache", layers[i].Name)
		}
		if second[i].Config != first[i].Config {
			t.Errorf("layer %s: warm-cache verdict differs", layers[i].Name)
		}
	}
}

// TestTuneNetworkConcurrentCallers hammers one shared cache from several
// concurrent TuneNetwork calls — the go test -race target for the
// network-level engine.
func TestTuneNetworkConcurrentCallers(t *testing.T) {
	layers := resnetBlockLayers()
	cache := NewCache()
	opts := NetworkOptions{Tune: smallOpts(16, 9), Workers: 3}
	const callers = 4
	verdicts := make([][]LayerVerdict, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			verdicts[g], errs[g] = TuneNetwork(arch, layers, cache, opts)
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for i := range layers {
			if verdicts[g][i].Config != verdicts[0][i].Config {
				t.Errorf("caller %d layer %s: divergent verdict", g, layers[i].Name)
			}
		}
	}
	if cache.Len() == 0 {
		t.Error("cache empty after concurrent tuning")
	}
}

// A planned task without a space — a kind whose NewSpace refused the shape —
// takes part in neither the kernel choice nor the analytic fallback's space
// list.
func TestChooseKindsSkipsSpacelessTask(t *testing.T) {
	opts := NetworkOptions{Winograd: true, Analytic: NewAnalyticDSE(arch)}
	plan := planSweep(arch, []NetworkLayer{{Name: "l", Shape: layer(), Repeat: 1}}, opts)
	if len(plan.tasks) != 2 || plan.tasks[1].Kind != Winograd {
		t.Fatalf("plan = %+v, want a direct and a winograd task", plan.tasks)
	}
	direct, wino := plan.tasks[0], plan.tasks[1]
	direct.sp = mustSpace(t, true)
	wino.err = errors.New("space refused")

	direct.m = Measurement{Seconds: 1}
	verdicts, err := plan.chooseKinds(opts)
	if err != nil || verdicts[0].Kind != Direct || verdicts[0].Tier != TierMeasured {
		t.Errorf("direct measured: verdict %+v, err %v; want the measured direct verdict", verdicts, err)
	}

	direct.err = errors.New("backend down")
	verdicts, err = plan.chooseKinds(opts)
	if err != nil || verdicts[0].Kind != Direct || verdicts[0].Tier != TierAnalytic {
		t.Errorf("direct failed: verdict %+v, err %v; want direct's analytic verdict", verdicts, err)
	}
}

// leadWaitLayers are three layers whose implicit-GEMM searches, led by
// Direct at seed 0, read their lead for both stops that read it: resnet18's
// conv0's trails its lead and stops on the short Patience, and MobileNetV1's
// first layer's, whose lead's verdict lies below every floor of its space,
// stops on the waiver against its lead's incumbent. resnet18's stage2 has a
// Winograd lead, which waives its Direct search.
func leadWaitLayers() (conv0, stage2, mobile0 NetworkLayer) {
	l := resnet18Layers()
	return NetworkLayer{Name: "conv0", Shape: l[0].Shape, Repeat: 1},
		NetworkLayer{Name: "stage2", Shape: l[4].Shape, Repeat: 1},
		NetworkLayer{Name: "mobile0", Shape: shapes.ConvShape{Batch: 1, Cin: 3, Hin: 224, Win: 224, Cout: 32,
			Hker: 3, Wker: 3, Strid: 2, Pad: 1}, Repeat: 1}
}

// leadWaitSweep runs the sweep of layers at workers, with the measurers of
// the kinds slow says on the shapes it says slowed by a millisecond, and
// returns its traces in plan order. A sweep that does not finish within a
// minute — a follower that kept its worker slot while it waited for its
// lead — fails the test instead of hanging it.
func leadWaitSweep(t *testing.T, layers []NetworkLayer, opts NetworkOptions, slow func(Kind, shapes.ConvShape) bool) []*Trace {
	t.Helper()
	opts.WrapMeasurer = func(k Kind, s shapes.ConvShape, m Measurer) FallibleMeasurer {
		if slow != nil && slow(k, s) {
			return LiftMeasurer(func(c conv.Config) (Measurement, bool) {
				time.Sleep(time.Millisecond)
				return m(c)
			})
		}
		return LiftMeasurer(m)
	}
	plan := planSweep(arch, layers, opts)
	done := make(chan error, 1)
	go func() { done <- plan.run(context.Background(), NewCache(), opts) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("workers=%d: the sweep did not finish", opts.Workers)
	}
	traces := make([]*Trace, len(plan.tasks))
	for i, task := range plan.tasks {
		traces[i] = task.trace
	}
	return traces
}

// checkLeadStops holds the two implicit-GEMM followers of leadWaitLayers to
// their stops: conv0's trails its Direct lead's verdict and stops on the
// short Patience, 2·BatchSize flat measurements or a batch more; mobile0's
// stops on the waiver against its lead's incumbent at leadAhead times its
// own measurements, never below the lead's verdict.
func checkLeadStops(t *testing.T, tune Options, conv0Direct, conv0IGEMM, mobileDirect, mobileIGEMM *Trace) {
	t.Helper()
	trail := 2 * tune.BatchSize
	if g, f := conv0IGEMM, conv0IGEMM.Measurements-conv0IGEMM.ConvergedAt; g.Stop != StopPatience ||
		!(conv0Direct.BestM.Seconds < g.BestM.Seconds) || f < trail || f >= trail+tune.BatchSize {
		t.Fatalf("conv0 implicit GEMM stopped on %v at %v after %d flat measurements, Direct verdict %v; want the short Patience of a trailing follower",
			g.Stop, g.BestM.Seconds, f, conv0Direct.BestM.Seconds)
	}
	if g := mobileIGEMM; g.Stop != StopGap || !g.Waived || !(g.GapRef >= mobileDirect.BestM.Seconds) {
		t.Fatalf("mobile0 implicit GEMM stopped on %v (waived %t) against %v, want the waiver against its Direct lead, verdict %v",
			g.Stop, g.Waived, g.GapRef, mobileDirect.BestM.Seconds)
	}
}

// A Direct-led search waits for its lead's incumbent at twice its own
// measurements, giving its worker slot back while it waits, so a sweep of one
// worker still finishes; and the traces are those of any other timing. A
// slowed Direct measurer makes the implicit-GEMM searches reach their
// questions first: the trailing follower's short Patience and the waiver
// both read the lead they wait for.
func TestGapWaitsForTheDirectVerdict(t *testing.T) {
	conv0, _, mobile0 := leadWaitLayers()
	layers := []NetworkLayer{conv0, mobile0}
	tune := DefaultOptions()
	tune.Seed = 0
	opts := NetworkOptions{Tune: tune, Workers: 2, Kinds: []Kind{ImplicitGEMM}}
	slow := func(k Kind, _ shapes.ConvShape) bool { return k == Direct }
	want := leadWaitSweep(t, layers, opts, nil)
	// The plan: conv0 Direct, conv0 implicit GEMM, mobile0 Direct, implicit
	// GEMM.
	if len(want) != 4 {
		t.Fatalf("%d searches, want 4", len(want))
	}
	checkLeadStops(t, tune, want[0], want[1], want[2], want[3])
	for _, workers := range []int{1, 1, 1, 2, 4} {
		opts.Workers = workers
		for i, tr := range leadWaitSweep(t, layers, opts, slow) {
			if !traceEqual(tr, want[i]) {
				t.Errorf("workers=%d, slow Direct: search %d diverges (stopped on %v after %d against %v)",
					workers, i, tr.Stop, tr.Measurements, tr.GapRef)
			}
		}
	}
}

// A follower waits for its layer lead's incumbent at twice its own
// measurements, giving its worker slot back while it waits, so a sweep of one
// worker still finishes; and the traces are those of any other timing.
// Slowed lead measurers make the followers reach their questions first: the
// implicit-GEMM searches of conv0 and mobile0 follow their Direct leads and
// stop on the trailing Patience and on the waiver; stage2's Direct search
// follows its Winograd lead and stops on the waiver.
func TestGapWaitsForTheLeadVerdict(t *testing.T) {
	conv0, stage2, mobile0 := leadWaitLayers()
	layers := []NetworkLayer{conv0, stage2, mobile0}
	tune := DefaultOptions()
	tune.Seed = 0
	opts := NetworkOptions{Tune: tune, Workers: 2, Winograd: true, Kinds: []Kind{ImplicitGEMM}}
	slow := func(k Kind, s shapes.ConvShape) bool {
		return k == Winograd || k == Direct && s != stage2.Shape
	}
	want := leadWaitSweep(t, layers, opts, nil)
	// The plan: conv0 Direct, conv0 implicit GEMM, stage2 Direct, Winograd,
	// implicit GEMM, mobile0 Direct, implicit GEMM.
	if len(want) != 7 {
		t.Fatalf("%d searches, want 7", len(want))
	}
	checkLeadStops(t, tune, want[0], want[1], want[5], want[6])
	if led := want[2]; led.Stop != StopGap || !led.Waived {
		t.Fatalf("stage2 Direct stopped on %v (waived %t), want the waiver's gap stop", led.Stop, led.Waived)
	}
	for _, workers := range []int{1, 1, 1, 2, 4} {
		opts.Workers = workers
		for i, tr := range leadWaitSweep(t, layers, opts, slow) {
			if !traceEqual(tr, want[i]) {
				t.Errorf("workers=%d, slow leads: search %d diverges (stopped on %v after %d against %v)",
					workers, i, tr.Stop, tr.Measurements, tr.GapRef)
			}
		}
	}
}

// A "winograd": false request for a shape first tuned Winograd-led reads the
// Direct entry alone. The waiver stopped that search on its own incumbent's
// proof as well as its lead's, so the answer is within the gap ratio of
// Direct's minimum floor, and so of its enumerated optimum. At seed 0 a
// waiver on the lead's proof alone would stop it 1.7× above that floor.
func TestDirectFollowerAnswersAlone(t *testing.T) {
	s := resnet18Layers()[4].Shape
	layers := []NetworkLayer{{Name: "stage2", Shape: s, Repeat: 1}}
	for _, seed := range []int64{0, 2} {
		tune := DefaultOptions()
		tune.Seed = seed
		cache := NewCache()
		verdicts, searches, err := TuneNetworkTraces(arch, layers, cache, NetworkOptions{Tune: tune, Winograd: true})
		if err != nil {
			t.Fatal(err)
		}
		if verdicts[0].Kind != Winograd || len(searches) != 2 || searches[0].Space.Kind != Direct || !searches[0].Waived {
			t.Fatalf("seed %d: verdict %v, Direct search waived: %t; want a Winograd verdict and a waived Direct search",
				seed, verdicts[0].Kind, len(searches) > 0 && searches[0].Waived)
		}
		alone, err := TuneNetwork(arch, layers, cache, NetworkOptions{Tune: tune})
		if err != nil {
			t.Fatal(err)
		}
		sp := searches[0].Space
		opt, above, ok := sp.Optimum()
		if !ok || above != "" {
			t.Fatalf("seed %d: nothing measures (%t) or a floor lies above a measurement: %s", seed, !ok, above)
		}
		if v := alone[0]; v.Kind != Direct || !v.Shared || v.M != searches[0].BestM ||
			!(v.M.Seconds <= gapRatio*sp.MinFloor()) || !(v.M.Seconds <= gapRatio*opt.Seconds) {
			t.Errorf("seed %d, winograd off: %v verdict %v (shared %t), want the cached Direct verdict %v within %v of the minimum floor %v",
				seed, v.Kind, v.M.Seconds, v.Shared, searches[0].BestM.Seconds, gapRatio, sp.MinFloor())
		}
	}
}

// dwLayer is MobileNetV1's 14×14 depthwise layer: its Direct verdict lies
// below every floor of its implicit-GEMM space, whose own incumbent, ~1.7×
// above its floor, seldom proves the gap.
var dwLayer = NetworkLayer{Name: "dw", Repeat: 1, Shape: shapes.ConvShape{
	Batch: 1, Cin: 512, Cout: 512, Hin: 14, Win: 14, Hker: 3, Wker: 3, Strid: 1, Pad: 1, Groups: 512}}

// A Direct-led implicit-GEMM search whose floors all lie above its lead's
// incumbent is waived on that proof alone, before its own incumbent proves
// the gap, at any worker count. Every request reads the Direct entry, so a
// later "kinds": ["igemm"] request for the layer answers Direct's cached
// verdict.
func TestDirectLedWaiverAnswersDirect(t *testing.T) {
	layers := []NetworkLayer{dwLayer}
	tune := DefaultOptions()
	tune.Seed = 0
	sweep := func(workers int, cache *Cache) (direct, igemm SearchTrace) {
		t.Helper()
		_, searches, err := TuneNetworkTraces(arch, layers, cache,
			NetworkOptions{Tune: tune, Workers: workers, Kinds: []Kind{FFT, ImplicitGEMM}})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range searches {
			switch s.Space.Kind {
			case Direct:
				direct = s
			case ImplicitGEMM:
				igemm = s
			}
		}
		if direct.Trace == nil || igemm.Trace == nil {
			t.Fatalf("workers=%d: %d searches, want Direct and implicit GEMM among them", workers, len(searches))
		}
		return direct, igemm
	}
	cache := NewCache()
	direct, igemm := sweep(2, cache)
	floor := igemm.Space.MinFloor()
	if !igemm.Waived || igemm.LeadKind != Direct || !(igemm.Lead < floor) || igemm.BestM.Seconds/gapRatio <= floor {
		t.Fatalf("implicit GEMM stopped on %v (waived %t) with verdict %v, %s lead %v, minimum floor %v; want a waiver its own incumbent does not prove",
			igemm.Stop, igemm.Waived, igemm.BestM.Seconds, igemm.LeadKind, igemm.Lead, floor)
	}
	for _, workers := range []int{1, 4} {
		d, g := sweep(workers, NewCache())
		if !traceEqual(d.Trace, direct.Trace) || !traceEqual(g.Trace, igemm.Trace) {
			t.Errorf("workers=%d: traces diverge (implicit GEMM stopped on %v after %d against %v)",
				workers, g.Stop, g.Measurements, g.GapRef)
		}
	}
	verdicts, err := TuneNetwork(arch, layers, cache, NetworkOptions{Tune: tune, Kinds: []Kind{ImplicitGEMM}})
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts[0]; v.Kind != Direct || !v.Shared || v.M != direct.BestM {
		t.Errorf(`"kinds": ["igemm"]: %v verdict %v (shared %t), want the cached Direct verdict %v`,
			v.Kind, v.M.Seconds, v.Shared, direct.BestM.Seconds)
	}
}

// A Direct lead whose measurements all fail gives its follower no waiver:
// the lead's incumbent reads +Inf throughout, and the follower runs the
// search it runs with no lead.
func TestFailedDirectLeadGivesNoWaiver(t *testing.T) {
	layers := []NetworkLayer{dwLayer}
	tune := DefaultOptions()
	tune.Seed = 0
	opts := NetworkOptions{Tune: tune, Workers: 2, Kinds: []Kind{ImplicitGEMM},
		WrapMeasurer: func(k Kind, _ shapes.ConvShape, m Measurer) FallibleMeasurer {
			if k == Direct {
				return func(conv.Config) (Measurement, bool, error) { return Measurement{}, false, nil }
			}
			return LiftMeasurer(m)
		}}
	plan := planSweep(arch, layers, opts)
	if err := plan.run(context.Background(), NewCache(), opts); err != nil {
		t.Fatal(err)
	}
	led := plan.tasks[1]
	if led.Kind != ImplicitGEMM || plan.tasks[0].err == nil {
		t.Fatalf("search 1 is %v and Direct failed: %t; want implicit GEMM after a failed Direct lead", led.Kind, plan.tasks[0].err != nil)
	}
	alone, err := Tune(led.sp, KindMeasurer(arch, dwLayer.Shape, ImplicitGEMM), tune)
	if err != nil {
		t.Fatal(err)
	}
	if led.trace.Waived || !traceEqual(led.trace, alone) {
		t.Errorf("after a failed Direct lead implicit GEMM stopped on %v after %d against %v (waived %t), alone on %v after %d against %v",
			led.trace.Stop, led.trace.Measurements, led.trace.GapRef, led.trace.Waived, alone.Stop, alone.Measurements, alone.GapRef)
	}
}

package autotune

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/shapes"
)

// These tests pin the two seams of the amortised cost model: the family's
// shared prior a search borrows and the copy it takes to refit (sharedPrior,
// GBTModel.clone), and the refit cadence of TuneFallible (refitDue,
// Trace.Refits).

// resnet18Layers is ResNet-18 as internal/models lists it (that package
// imports this one, so the table is repeated here).
func resnet18Layers() []NetworkLayer {
	c := func(cin, hw, cout, k, stride, pad int) shapes.ConvShape {
		return shapes.ConvShape{Batch: 1, Cin: cin, Hin: hw, Win: hw, Cout: cout,
			Hker: k, Wker: k, Strid: stride, Pad: pad}
	}
	return []NetworkLayer{
		{Name: "conv1", Shape: c(3, 224, 64, 7, 2, 3), Repeat: 1},
		{Name: "stage1", Shape: c(64, 56, 64, 3, 1, 1), Repeat: 4},
		{Name: "stage2_down", Shape: c(64, 56, 128, 3, 2, 1), Repeat: 1},
		{Name: "stage2_proj", Shape: c(64, 56, 128, 1, 2, 0), Repeat: 1},
		{Name: "stage2", Shape: c(128, 28, 128, 3, 1, 1), Repeat: 3},
		{Name: "stage3_down", Shape: c(128, 28, 256, 3, 2, 1), Repeat: 1},
		{Name: "stage3_proj", Shape: c(128, 28, 256, 1, 2, 0), Repeat: 1},
		{Name: "stage3", Shape: c(256, 14, 256, 3, 1, 1), Repeat: 3},
		{Name: "stage4_down", Shape: c(256, 14, 512, 3, 2, 1), Repeat: 1},
		{Name: "stage4_proj", Shape: c(256, 14, 512, 1, 2, 0), Repeat: 1},
		{Name: "stage4", Shape: c(512, 7, 512, 3, 1, 1), Repeat: 3},
	}
}

// warmSweepOpts is a warm sweep as cmd/tuned runs one: engine defaults
// (budget 400) at seed 0, Winograd on.
func warmSweepOpts(workers int) NetworkOptions {
	o := NetworkOptions{Tune: DefaultOptions(), Workers: workers, Winograd: true, Warm: true}
	o.Tune.Seed = 0
	o.Tune.Workers = workers
	return o
}

// runSweep runs a sweep on a fresh cache and returns its plan, whose tasks
// keep the traces.
func runSweep(t *testing.T, layers []NetworkLayer, opts NetworkOptions) sweepPlan {
	t.Helper()
	plan := planSweep(arch, layers, opts)
	if err := plan.run(context.Background(), NewCache(), opts); err != nil {
		t.Fatal(err)
	}
	return plan
}

// A clone updated with rows A is, bit for bit, the model fitted from scratch
// and updated with rows A; updating a second clone with rows B moves neither
// the first nor the prior they were both taken from — also when the clones
// are taken and updated concurrently (the race detector checks the sharing).
func TestGBTCloneUpdatesIndependently(t *testing.T) {
	const n, grown = 240, 320
	cfg := DefaultGBTConfig()
	probes := gbtGoldenProbes()
	xa, ya := gbtGoldenRows(grown, 41)
	// B shares the prior's rows and continues differently.
	xb, yb := gbtGoldenRows(grown, 43)
	copy(xb, xa[:n])
	copy(yb, ya[:n])

	// update is two engine-style refits, so the second one starts from
	// columns the first one already grew.
	update := func(m *GBTModel, x [][]float64, y []float64) uint64 {
		m.Update(x[:n+40], y[:n+40], cfg.UpdateTrees)
		m.Update(x, y, cfg.UpdateTrees)
		if m.NumRows() != grown || m.NumTrees() != cfg.Trees+2*cfg.UpdateTrees {
			t.Errorf("updated model holds %d rows, %d trees", m.NumRows(), m.NumTrees())
		}
		return gbtGoldenHash(m, probes)
	}
	wantA := update(TrainGBT(cfg, xa[:n], ya[:n]), xa, ya)
	wantB := update(TrainGBT(cfg, xb[:n], yb[:n]), xb, yb)
	if wantA == wantB {
		t.Fatal("rows A and rows B fit the same model; the test separates nothing")
	}

	prior := TrainGBT(cfg, xa[:n], ya[:n])
	wantPrior := gbtGoldenHash(prior, probes)
	a := prior.clone()
	if got := update(a, xa, ya); got != wantA {
		t.Errorf("clone updated with A predicts %016x, a fresh fit updated with A %016x", got, wantA)
	}
	b := prior.clone()
	if got := update(b, xb, yb); got != wantB {
		t.Errorf("clone updated with B predicts %016x, a fresh fit updated with B %016x", got, wantB)
	}
	if got := gbtGoldenHash(a, probes); got != wantA {
		t.Errorf("updating the second clone moved the first: %016x, was %016x", got, wantA)
	}
	if got := gbtGoldenHash(prior, probes); got != wantPrior || prior.NumRows() != n || prior.NumTrees() != cfg.Trees {
		t.Errorf("updating its clones moved the prior: %016x (%d rows, %d trees), was %016x",
			got, prior.NumRows(), prior.NumTrees(), wantPrior)
	}

	// The sweep's way in: searches on several workers borrow one
	// sharedPrior, the first of them fitting it, and each updates a clone.
	var shared sharedPrior
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		x, y, want := xa, ya, wantA
		if g%2 == 1 {
			x, y, want = xb, yb, wantB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := update(shared.borrow(cfg, xa[:n], ya[:n]).clone(), x, y); got != want {
				t.Errorf("concurrent taker predicts %016x, want %016x", got, want)
			}
		}()
	}
	wg.Wait()
	if got := gbtGoldenHash(shared.model, probes); got != wantPrior {
		t.Errorf("concurrent takers moved the shared prior: %016x, was %016x", got, wantPrior)
	}
}

// A prior memo hit is TrainGBT on the same rows to every search that only
// predicts: the slot's bare forest holding the rows, predicting what TrainGBT
// does, with no per-row predictions or ranks. A clone of it gets TrainGBT's
// per-row state and histogram ranks bit for bit on its first Update, and the
// same model after two engine-style Updates. Four sweeps' priors that hit one
// slot concurrently each borrow that forest and update a clone, and the
// slot's shared forest survives their updates (the race detector checks the
// sharing).
func TestPriorMemoIsBitNeutral(t *testing.T) {
	const n, grown = poolRowCap, poolRowCap + 80
	cfg := DefaultGBTConfig()
	probes := gbtGoldenProbes()
	x, y := gbtGoldenRows(grown, 47)
	update := func(m *GBTModel) uint64 {
		m.Update(x[:n+40], y[:n+40], cfg.UpdateTrees)
		m.Update(x, y, cfg.UpdateTrees)
		return gbtGoldenHash(m, probes)
	}
	ref := TrainGBT(cfg, x[:n], y[:n])
	wantFit := gbtGoldenHash(ref, probes)
	wantUpdated := update(ref.clone())

	var memo priorMemo
	key := priorKey{arch.Name, familyOf(Direct, layer())}
	counts := func(hits, misses, belowCap int) {
		t.Helper()
		memo.mu.Lock()
		defer memo.mu.Unlock()
		if memo.hits != hits || memo.misses != misses || memo.belowCap != belowCap {
			t.Errorf("memo counted %d hits, %d misses, %d below the cap; want %d, %d, %d",
				memo.hits, memo.misses, memo.belowCap, hits, misses, belowCap)
		}
	}
	sameState := func(name string, m *GBTModel) {
		t.Helper()
		if m.base != ref.base || !slices.Equal(m.nodes, ref.nodes) || !slices.Equal(m.roots, ref.roots) ||
			!slices.Equal(m.pred, ref.pred) || !reflect.DeepEqual(m.uniq, ref.uniq) ||
			!slices.Equal(m.binOff, ref.binOff) || !slices.Equal(m.slot, ref.slot) {
			t.Errorf("%s prior differs from TrainGBT on the same rows", name)
		}
		if got := update(m.clone()); got != wantUpdated {
			t.Errorf("%s prior updated predicts %016x, TrainGBT updated %016x", name, got, wantUpdated)
		}
	}
	sameState("fitted", memo.fit(key, cfg, x[:n], y[:n]))
	bare := memo.fit(key, cfg, x[:n], y[:n])
	counts(1, 1, 0)
	if bare.base != ref.base || !slices.Equal(bare.nodes, ref.nodes) || !slices.Equal(bare.roots, ref.roots) ||
		gbtGoldenHash(bare, probes) != wantFit || bare.NumRows() != n {
		t.Errorf("a memo hit predicts %016x over %d rows, TrainGBT %016x over %d",
			gbtGoldenHash(bare, probes), bare.NumRows(), wantFit, n)
	}
	if bare.pred != nil || bare.uniq != nil || bare.binOff != nil || bare.slot != nil {
		t.Errorf("a memo hit carries training state: %d predictions, %d rank columns", len(bare.pred), len(bare.uniq))
	}
	if got := update(bare.clone()); got != wantUpdated {
		t.Errorf("a memo hit's clone updated predicts %016x, TrainGBT updated %016x", got, wantUpdated)
	}
	ingested := bare.clone()
	ingested.Update(x[:n], y[:n], 0) // the ingest every Update starts with
	sameState("ingested", ingested)
	if bare.pred != nil || gbtGoldenHash(bare, probes) != wantFit {
		t.Error("updating a memo hit's clones moved the bare forest")
	}

	// Below the cap nothing is memoized, only counted; a changed row set misses and takes
	// the slot over.
	memo.fit(key, cfg, x[:n-1], y[:n-1])
	counts(1, 1, 1)
	y2 := slices.Clone(y[:n])
	y2[n/2] += 1e-9
	memo.fit(key, cfg, x[:n], y2)
	counts(1, 2, 1)
	memo.fit(key, cfg, x[:n], y[:n])
	counts(1, 3, 1)

	// Four sweeps' family priors, hitting one slot at once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &sharedPrior{memo: &memo, key: key}
			if got := update(p.borrow(cfg, x[:n], y[:n]).clone()); got != wantUpdated {
				t.Errorf("concurrent memo hit's clone predicts %016x, want %016x", got, wantUpdated)
			}
		}()
	}
	wg.Wait()
	counts(5, 3, 1)
	if got := gbtGoldenHash(memo.fit(key, cfg, x[:n], y[:n]), probes); got != wantFit {
		t.Errorf("updating rebuilt priors moved the slot: %016x, was %016x", got, wantFit)
	}
}

// One sweep's family prior, a memo hit, read by six searches at once: four
// borrow it and predict, two take a clone, as a search does on its first
// refit, and Update it twice. Borrowers predict what TrainGBT does, takers end
// where TrainGBT updated twice does, the prior is fitted once, and the shared
// forest neither moves nor gains training state (the race detector checks
// the sharing).
func TestSharedPriorBorrowThenTake(t *testing.T) {
	const n, grown = poolRowCap, poolRowCap + 80
	cfg := DefaultGBTConfig()
	probes := gbtGoldenProbes()
	x, y := gbtGoldenRows(grown, 59)
	ref := TrainGBT(cfg, x[:n], y[:n])
	wantFit := gbtGoldenHash(ref, probes)
	updated := ref.clone()
	updated.Update(x[:n+40], y[:n+40], cfg.UpdateTrees)
	updated.Update(x, y, cfg.UpdateTrees)
	wantUpdated := gbtGoldenHash(updated, probes)

	var memo priorMemo
	key := priorKey{arch.Name, familyOf(Direct, layer())}
	memo.fit(key, cfg, x[:n], y[:n]) // an earlier sweep's fit fills the slot
	p := &sharedPrior{memo: &memo, key: key}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.borrow(cfg, x[:n], y[:n])
			if g < 4 {
				if got := gbtGoldenHash(m, probes); got != wantFit || m.NumRows() != n {
					t.Errorf("borrower predicts %016x over %d rows, TrainGBT %016x over %d", got, m.NumRows(), wantFit, n)
				}
				return
			}
			m = m.clone()
			m.Update(x[:n+40], y[:n+40], cfg.UpdateTrees)
			m.Update(x, y, cfg.UpdateTrees)
			if got := gbtGoldenHash(m, probes); got != wantUpdated {
				t.Errorf("taker updated predicts %016x, TrainGBT updated %016x", got, wantUpdated)
			}
		}()
	}
	wg.Wait()
	if memo.hits != 1 || memo.misses != 1 {
		t.Errorf("memo counted %d hits, %d misses; want the one borrowed fit to hit", memo.hits, memo.misses)
	}
	if got := gbtGoldenHash(p.model, probes); got != wantFit || p.model.NumTrees() != cfg.Trees ||
		p.model.pred != nil || p.model.uniq != nil || p.model.slot != nil {
		t.Errorf("the shared forest moved: %016x, %d trees, %d predictions; was %016x, %d trees, none",
			got, p.model.NumTrees(), len(p.model.pred), wantFit, cfg.Trees)
	}
}

// Sharing moves nothing: every warm search of a ResNet-18 sweep — which
// borrowed its family's one prior and copied it to refit — has the trace of
// the same search handed the same transferred rows with no shared entry,
// fitting its own prior. The reference rebuilds the sweep's schedule by hand
// (the first search of each family runs cold and feeds the pool), so it
// checks that too.
func TestSharedPriorIsBitNeutral(t *testing.T) {
	opts := warmSweepOpts(4)
	plan := runSweep(t, resnet18Layers(), opts)

	pool := newTransferPool()
	cold := make(map[poolKey]bool)
	var warm []*netTask
	for _, task := range plan.tasks {
		if task.sp == nil {
			continue
		}
		if fam := familyOf(task.Kind, task.Shape); !cold[fam] {
			cold[fam] = true
			if task.err == nil {
				pool.contribute(task.Kind, task.sp, task.history())
			}
		} else {
			warm = append(warm, task)
		}
	}
	if len(warm) == 0 {
		t.Fatal("the sweep ran no warm search")
	}
	transferred := 0
	for _, task := range warm {
		o := opts.Tune
		shared := 0
		if w := pool.warmFor(familyOf(task.Kind, task.Shape)); w != nil {
			own := *w
			own.prior = nil
			o.Warm = &own
			if len(w.Feats) > 0 {
				shared = 1 // the fit the search no longer runs itself
				transferred++
			}
		}
		ref, err := Tune(task.sp, NewMemoMeasure(arch, task.Shape, task.Kind).Measure, o)
		if (err != nil) != (task.err != nil) {
			t.Fatalf("%s %v: sweep error %v, reference error %v", task.Kind, task.Shape, task.err, err)
		}
		if err != nil {
			continue
		}
		if !traceEqual(ref, task.trace) {
			t.Errorf("%s %v: sharing the prior moved the trace (best %v vs %v, %d vs %d measurements)",
				task.Kind, task.Shape, task.trace.Best, ref.Best, task.trace.Measurements, ref.Measurements)
		}
		if task.trace.Refits+shared != ref.Refits {
			t.Errorf("%s %v: %d refits with a shared prior, %d fitting its own",
				task.Kind, task.Shape, task.trace.Refits, ref.Refits)
		}
	}
	if transferred == 0 {
		t.Fatal("no warm search was handed transferred rows")
	}
}

// The cadence rule is geometric: fed the engine's batches, successive fits
// are at least a factor 9/8 apart in rows, so growing a training set from a
// to b rows costs at most log(b/a)/log(9/8) fits, not (b-a)/batch.
func TestRefitDueIsGeometric(t *testing.T) {
	const from, to, batch = 64, 912, 8
	fitted, fits := from, 0
	for rows := from + batch; rows <= to; rows += batch {
		if !refitDue(rows, fitted) {
			continue
		}
		if rows*refitGrowth < fitted*(refitGrowth+1) {
			t.Errorf("fit at %d rows follows the one at %d: less than 1/%d growth", rows, fitted, refitGrowth)
		}
		fitted = rows
		fits++
	}
	// log(912/64)/log(9/8) = 22.6; batches of 8 round each step up.
	if fits < 8 || fits > 22 {
		t.Errorf("%d fits from %d to %d rows, want a logarithmic count", fits, from, to)
	}
	if to-fitted >= fitted/refitGrowth+batch {
		t.Errorf("last fit at %d of %d rows: the model went stale", fitted, to)
	}
}

// On a full budget-400 search the number of fits is bounded — cold (every
// batch below 64 rows, then geometric) and warm (512 transferred rows, so a
// refit every 64+ own rows) — where the per-batch schedule ran ~50. A warm
// search's first iterations are not due a refit and must rank from the prior.
// The layer is ResNet-18's strided 3×3 whose optimum sits 1.42× above the
// minimum floor of its space: no certificate can stop it, so with Patience
// off both searches spend the whole budget.
func TestRefitCadence(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 2, Pad: 1}
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	measure := KindMeasurer(arch, s, Direct)
	opts := DefaultOptions()
	opts.Patience = 0

	cold, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Measurements != opts.Budget || cold.Stop != StopBudget {
		t.Fatalf("cold search stopped on %v at %d of %d measurements", cold.Stop, cold.Measurements, opts.Budget)
	}
	// 64 → 400 rows is at most 15 geometric fits; the small-set phase adds a
	// handful.
	if cold.Refits < 8 || cold.Refits > 25 {
		t.Errorf("cold budget-%d search ran %d refits, want 8..25", opts.Budget, cold.Refits)
	}

	// Two donor searches of the family fill the pool to its row cap.
	pool := newTransferPool()
	for i, donor := range []shapes.ConvShape{
		{Batch: 1, Cin: 128, Hin: 28, Win: 28, Cout: 256, Hker: 3, Wker: 3, Strid: 2, Pad: 1},
		{Batch: 1, Cin: 32, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 2, Pad: 1},
	} {
		dsp, err := NewSpace(donor, arch, Direct, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Seed = int64(5 + i)
		dtr, err := Tune(dsp, KindMeasurer(arch, donor, Direct), o)
		if err != nil {
			t.Fatal(err)
		}
		pool.contribute(Direct, dsp, dtr.History)
	}
	warm := pool.warmFor(familyOf(Direct, s))
	if warm == nil || len(warm.Feats) != poolRowCap {
		t.Fatalf("donors left %d transferred rows, want the cap %d", len(warm.Feats), poolRowCap)
	}

	opts.Warm = warm
	full, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Measurements != opts.Budget || full.Stop != StopBudget {
		t.Fatalf("warm search stopped on %v at %d of %d measurements", full.Stop, full.Measurements, opts.Budget)
	}
	// 512 → 912 rows is at most 5 geometric fits; the copy of the shared
	// prior is none.
	if full.Refits < 2 || full.Refits > 5 {
		t.Errorf("warm budget-%d search ran %d refits, want 2..5", opts.Budget, full.Refits)
	}

	// Budget 48 adds fewer than 64 own rows: no refit is ever due, and every
	// iteration predicts from the prior as taken.
	short := opts
	short.Budget = 48
	tr, err := Tune(sp, measure, short)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Refits != 0 || tr.Measurements != short.Budget {
		t.Errorf("warm budget-%d search: %d refits, %d measurements; want 0 refits and the whole budget",
			short.Budget, tr.Refits, tr.Measurements)
	}
	// The same search without the shared entry fits that prior itself — its
	// one fit — and is otherwise identical.
	own := *warm
	own.prior = nil
	short.Warm = &own
	ref, err := Tune(sp, measure, short)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Refits != 1 || !traceEqual(ref, tr) {
		t.Errorf("hand-built warm start: %d refits, trace equal %v; want 1 and true", ref.Refits, traceEqual(ref, tr))
	}
}

// cadenceDigest is one search in testdata/cadence.golden.
func cadenceDigest(b *bytes.Buffer, tag string, tr *Trace) {
	fmt.Fprintf(b, "%s best %+v seconds %s measurements %d convergedAt %d pruned %d refits %d stop %v history %016x\n",
		tag, tr.Best, goldenFloat(tr.BestM.Seconds), tr.Measurements, tr.ConvergedAt, tr.Pruned, tr.Refits,
		tr.Stop, goldenHistoryHash(tr.History))
}

// kinds.golden tunes at budget 48, which never leaves the small-set phase:
// neither Update nor the cadence shows in it. testdata/cadence.golden pins
// both where they run — a budget-400 cold search per kind and a warm
// ResNet-18 sweep, one line per search — and each must come out the same at
// 1 and 4 workers. Regenerate with
//
//	go test ./internal/autotune -run TestCadenceGolden -update
//
// only for a change that is meant to move the engine's verdicts.
func TestCadenceGolden(t *testing.T) {
	digest := func(workers int) []byte {
		var b bytes.Buffer
		s := resnet18Layers()[4].Shape // 3×3, unit stride: every kind admits it
		for _, kind := range Kinds {
			sp, err := NewSpace(s, arch, kind, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions()
			o.Seed = 3
			o.Workers = workers
			tr, err := Tune(sp, NewMemoMeasure(arch, s, kind).Measure, o)
			if err != nil {
				t.Fatal(err)
			}
			cadenceDigest(&b, fmt.Sprintf("cold %s", kind), tr)
		}
		layers := resnet18Layers()
		for _, task := range runSweep(t, layers, warmSweepOpts(workers)).tasks {
			tag := fmt.Sprintf("sweep %s %s", layers[task.owner].Name, task.Kind)
			if task.err != nil {
				fmt.Fprintf(&b, "%s error %v\n", tag, task.err)
				continue
			}
			cadenceDigest(&b, tag, task.trace)
		}
		return b.Bytes()
	}
	one := digest(1)
	if four := digest(4); !bytes.Equal(one, four) {
		t.Errorf("digest differs between 1 and 4 workers:\n%s\nvs\n%s", one, four)
	}
	checkGolden(t, "cadence.golden", one)
}

package autotune

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/shapes"
)

// These tests pin the refit cadence of the amortised cost model in
// TuneFallible (refitDue, Trace.Refits), cold and warm.

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
// batch below warmStartRows, then geometric) and warm (geometric from its
// first fit) — where the per-batch schedule ran ~50. The layer is
// ResNet-18's strided 3×3 whose optimum sits 1.42× above the minimum floor of
// its space: no certificate can stop it, so with Patience off every search
// spends its whole budget.
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

	// Two donor searches of the family: their measured configurations,
	// each with its ratio to its floor in its own space, rank the seeds.
	var cands []scored
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
		for _, h := range dtr.History {
			if h.OK {
				cands = append(cands, scored{h.Config, h.M.Seconds / dsp.analyticFloor(h.Config)})
			}
		}
	}
	warm := seedsFor(sp, cands, false)
	if warm == nil || len(warm.Seeds) != warmSeeds {
		t.Fatalf("donors rank the seeds %v, want %d seeds", warm, warmSeeds)
	}

	opts.warm = warm
	full, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Measurements != opts.Budget || full.Stop != StopBudget {
		t.Fatalf("warm search stopped on %v at %d of %d measurements", full.Stop, full.Measurements, opts.Budget)
	}
	// The first fit sees the seed batches, about a dozen rows. A fit on n
	// rows waits for max(1, n/8) more: one per batch of 8 up to 64 rows, then
	// at most 15 geometric fits to 400.
	if full.Refits < 12 || full.Refits > 25 {
		t.Errorf("warm budget-%d search ran %d refits, want 12..25", opts.Budget, full.Refits)
	}

	// Budget 48 never reaches warmStartRows: a raw search would retrain on
	// every batch, the residual one fits once and Updates as batches arrive.
	// Its trace is the same at any measurement worker count.
	short := opts
	short.Budget = 48
	tr, err := Tune(sp, measure, short)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Refits < 2 || tr.Measurements != short.Budget {
		t.Errorf("warm budget-%d search: %d refits, %d measurements; want refits below %d rows and the whole budget",
			short.Budget, tr.Refits, tr.Measurements, short.Budget)
	}
	short.Workers = 4
	ref, err := Tune(sp, measure, short)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Refits != tr.Refits || !traceEqual(ref, tr) {
		t.Errorf("4 workers: %d vs %d refits, trace equal %v; want equal", ref.Refits, tr.Refits, traceEqual(ref, tr))
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

package autotune

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// The tile-shape probes keep the loop's batch rules: a probe is never a
// configuration the search has seen — measured, or pruned and marked — nor
// one the bound would prune against the incumbent; a batch that probes holds
// one configuration per tile, probes included (a search flat enough to probe
// is not refining its incumbent's tile); a bound-blind search never probes,
// nor one whose budget ends before its Patience window would (a budget-48
// search never does); and the probes, like the rest of the trace, are the
// same at 1 and 8 workers. The test drives the search as TuneFallible does,
// reading each loop batch and its probes before measuring it, and checks
// that Tune at either worker count books the same trace.
func TestProbesKeepTheBatchRules(t *testing.T) {
	strided := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 2, Pad: 1}
	conv3 := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 13, Win: 13, Cout: 384, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	stage1 := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	for _, tc := range []struct {
		name    string
		shape   shapes.ConvShape
		kind    Kind
		noPrune bool
		seed    int64
		budget  int
	}{
		{"direct", strided, Direct, false, 1, 240},
		{"winograd", conv3, Winograd, false, 3, 240},
		{"direct-noprune", stage1, Direct, true, 3, 240},
		{"winograd-noprune", engineBenchLayer(), Winograd, true, 4, 240},
		{"winograd-budget48", conv3, Winograd, false, 3, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpace(tc.shape, arch, tc.kind, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			mm := KindMeasurer(arch, tc.shape, tc.kind)
			opts := DefaultOptions()
			opts.Budget, opts.Seed, opts.NoPrune = tc.budget, tc.seed, tc.noPrune
			probing := !tc.noPrune && tc.budget > opts.Patience
			ctx := context.Background()
			s := newSearch(ctx, sp, LiftMeasurer(mm), opts)
			s.measure(ctx, s.designs())
			s.measure(ctx, s.initial(false))
			proposed := 0
			for !s.stop(true) {
				batch := s.walk()
				probes := s.probed[:s.nprobed]
				if len(probes) > 0 && (!probing || opts.Budget-s.rec.trace.Measurements < opts.Patience-s.rec.flat()) {
					t.Fatalf("probes %v at %d of %d measurements, %d flat (NoPrune %t)",
						probes, s.rec.trace.Measurements, opts.Budget, s.rec.flat(), tc.noPrune)
				}
				for _, p := range probes {
					if s.seen[p] || sp.BoundSeconds(p) > s.rec.trace.BestM.Seconds || !slices.Contains(batch, p) {
						t.Fatalf("probe %v: seen %t, pruning floor %v above the incumbent %v, or not in the batch %v",
							p, s.seen[p], sp.BoundSeconds(p), s.rec.trace.BestM.Seconds, batch)
					}
				}
				tiles := make(map[tileKey]bool)
				for _, c := range batch {
					if len(probes) > 0 && tiles[tileOf(c)] {
						t.Fatalf("a probing batch holds two configurations of tile %v: %v", tileOf(c), batch)
					}
					tiles[tileOf(c)] = true
				}
				proposed += len(probes)
				s.measure(ctx, batch)
			}
			tr := s.rec.trace
			if got := tr.Probes.Measured; got > proposed || probing == (got == 0) || tr.Probes.Improved > got {
				t.Fatalf("%d probes proposed, credit %+v", proposed, tr.Probes)
			}
			for _, workers := range []int{1, 8} {
				o := opts
				o.Workers = workers
				got, err := Tune(sp, mm, o)
				if err != nil {
					t.Fatal(err)
				}
				if !traceEqual(got, &tr) || got.Probes != tr.Probes {
					t.Fatalf("workers=%d: Tune booked %d measurements, probes %+v; the driven search %d, %+v",
						workers, got.Measurements, got.Probes, tr.Measurements, tr.Probes)
				}
			}
		})
	}
}

// aspect is round(log2(x/y)) on every pair of tile dims up to 2 048, bit for
// bit as the float formula gives it.
func TestAspectRoundsTheLog(t *testing.T) {
	for x := 1; x <= 2048; x++ {
		for y := 1; y <= 2048; y++ {
			if got, want := aspect(x, y), int(math.Round(math.Log2(float64(x)/float64(y)))); got != want {
				t.Fatalf("aspect(%d, %d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// A resumed search replays its persisted rows, and the cache's ingress
// checks only that a row's dimensions are at least 1 and its tile edge is
// the kind's: a row may still lie off the space's axes. Such a row has no
// tile-shape class (index -1), so the probes neither mark nor read one for
// it: the resume runs long enough to probe, and finishes. The rows sit on
// the last tile edge, where a TileZ past the axis would index past the
// table, beside a TileZ between two axis values and an aspect past the
// axes'.
func TestProbesSkipOffAxisReplayedRows(t *testing.T) {
	conv3 := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 13, Win: 13, Cout: 384, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(conv3, arch, Winograd, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	mm := KindMeasurer(arch, conv3, Winograd)
	opts := DefaultOptions()
	opts.Seed = 3
	opts.Budget = 48
	cache := NewCache()
	if _, _, err := TuneCached(cache, sp, mm, opts); err != nil {
		t.Fatal(err)
	}
	e, ok := cache.Entry(arch.Name, Winograd, conv3)
	if !ok || len(e.Rows) == 0 {
		t.Fatal("TuneCached persisted no engine state")
	}
	edge := sp.row.edges[len(sp.row.edges)-1]
	z := sp.zs[len(sp.zs)-1]
	between := 0
	for i := 1; i < len(sp.zs) && between == 0; i++ {
		if sp.zs[i]-sp.zs[i-1] > 1 {
			between = sp.zs[i-1] + 1
		}
	}
	if between == 0 {
		t.Fatalf("TileZ axis %v has no gap", sp.zs)
	}
	offAxis := []conv.Config{
		{TileX: 4, TileY: 4, TileZ: 2 * z, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: sp.sbs[0], WinogradE: edge},
		{TileX: 4, TileY: 4, TileZ: between, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: sp.sbs[0], WinogradE: edge},
		{TileX: 2048, TileY: 1, TileZ: z, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: sp.sbs[0], WinogradE: edge},
		{TileX: 1, TileY: 2048, TileZ: z, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: sp.sbs[0], WinogradE: edge},
	}
	cl := sp.shapeClasses(math.Inf(1))
	for _, c := range offAxis {
		if i := cl.index(sp, c); i != -1 {
			t.Fatalf("index(%+v) = %d, want -1", c, i)
		}
		e.Rows = append(e.Rows, CachedMeasurement{Config: configToCached(c), Seconds: 1, OK: true})
	}
	for i, rep := range cl.reps {
		if !math.IsInf(rep.cost, 1) && cl.index(sp, rep.cfg) != i {
			t.Fatalf("representative %+v of class %d indexes class %d", rep.cfg, i, cl.index(sp, rep.cfg))
		}
	}
	resumed := NewCache()
	if err := resumed.PutEntries([]CacheEntry{e}); err != nil {
		t.Fatalf("the cache's ingress rejects the off-axis rows: %v", err)
	}
	opts.Budget = 400
	tr, err := TuneResumed(resumed, sp, mm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Probes.Measured == 0 {
		t.Fatalf("the resumed search never probed (%d measurements, stop %v)", tr.Measurements, tr.Stop)
	}
}

// The class table is the enumeration's: for each class, its admissible
// tiles whose tileRates floor is below ub, taken in compare order, and the
// first of them whose least-floor thread counts measure (leastThreads) is the
// representative; a class with none scores +Inf. The spaces are a Direct, a
// Winograd and a grouped one (in which a table that pops a class's groups
// in the order it meets them, not by floor, picks wrong representatives),
// each at ub = +Inf and at a finite incumbent, 1.1 times the space's least
// tight floor, below which some classes must fall out.
func TestShapeClassesMatchEnumeration(t *testing.T) {
	conv3 := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 13, Win: 13, Cout: 384, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	grouped := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 28, Win: 28, Cout: 32, Hker: 5, Wker: 5, Strid: 1, Pad: 2, Groups: 4}
	dropped := 0
	for _, tc := range []struct {
		name  string
		shape shapes.ConvShape
		kind  Kind
	}{
		{"direct", engineBenchLayer(), Direct},
		{"winograd", conv3, Winograd},
		{"grouped", grouped, Direct},
	} {
		sp, err := NewSpace(tc.shape, arch, tc.kind, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, ub := range []float64{math.Inf(1), 1.1 * sp.minFloor(math.Inf(1))} {
			cl := sp.shapeClasses(ub)
			tiles := make([][]tileBound, len(cl.reps))
			sp.enumerateTiles(func(c conv.Config) bool {
				if b := sp.floor(c, tileRates); b < ub {
					i := cl.index(sp, c)
					tiles[i] = append(tiles[i], tileBound{bound: b, x: int16(c.TileX), y: int16(c.TileY), z: int16(c.TileZ),
						sb: int16(c.SharedPerBlock), lay: int8(c.Layout), e: int8(c.WinogradE)})
				}
				return true
			})
			finite := 0
			for i, class := range tiles {
				slices.SortFunc(class, tileBound.compare)
				want := scored{cost: math.Inf(1)}
				for _, tb := range class {
					if r := sp.leastThreads(sp.divisors(), tb.config()); !math.IsInf(r.cost, 1) {
						want = r
						break
					}
				}
				if got := cl.reps[i]; got.cfg != want.cfg || math.Float64bits(got.cost) != math.Float64bits(want.cost) {
					t.Fatalf("%s ub=%v class %d: table %+v, enumeration %+v", tc.name, ub, i, got, want)
				}
				if !math.IsInf(want.cost, 1) {
					finite++
				}
			}
			if finite == 0 {
				t.Fatalf("%s ub=%v: no class has a representative: the check is vacuous", tc.name, ub)
			}
			if math.IsInf(ub, 1) {
				kept += finite
			} else {
				dropped += kept - finite
			}
			t.Logf("%s ub=%v: %d of %d classes", tc.name, ub, finite, len(cl.reps))
		}
	}
	if dropped == 0 {
		t.Fatal("no finite bound dropped a class: the bounded tables are the unbounded ones")
	}
}

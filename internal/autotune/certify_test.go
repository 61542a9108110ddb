package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// certifySpaces draws seeded random (shape, arch, kind) spaces, dense and
// grouped, pruned and not: every kind that admits the shape.
func certifySpaces(t *testing.T, seed int64, trials int) []*Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sps []*Space
	for trial := 0; trial < trials; trial++ {
		s := randomSmallShape(rng)
		if trial%3 == 2 {
			s = randomGroupedShape(rng)
		}
		a := memsim.Catalog[rng.Intn(len(memsim.Catalog))]
		for _, kind := range Kinds {
			sp, err := NewSpace(s, a, kind, 0, trial%2 == 0)
			if err == nil {
				sps = append(sps, sp)
			}
		}
	}
	return sps
}

// referenceScan is the analytic scan by full enumeration: every measurable
// configuration of positive, finite floor offered to the top-analyticTopCap
// heap; empty when nothing ranks.
func referenceScan(sp *Space) []scored {
	var h bestK
	h.reset(analyticTopCap)
	sp.enumerate(func(c conv.Config) bool {
		if !sp.measurable(c) {
			return true
		}
		f := sp.analyticFloor(c)
		if !(f > 0) || math.IsInf(f, 1) {
			return true
		}
		h.push(scored{cfg: c, cost: f})
		return true
	})
	return h.sorted(nil)
}

// scanMismatch compares the space's memoized analytic scan with the full
// enumeration, floors bit for bit: "" when they agree.
func scanMismatch(sp *Space) string {
	want := referenceScan(sp)
	if _, err := sp.AnalyticTop(0, 1); (err == nil) != (len(want) > 0) {
		return fmt.Sprintf("scan error %v, reference ranks %d", err, len(want))
	}
	if len(sp.anTop) != len(want) {
		return fmt.Sprintf("scan keeps %d, reference %d", len(sp.anTop), len(want))
	}
	for i, s := range sp.anTop {
		if s.cfg != want[i].cfg || math.Float64bits(s.cost) != math.Float64bits(want[i].cost) {
			return fmt.Sprintf("[%d] scan %v at %v, reference %v at %v", i, s.cfg, s.cost, want[i].cfg, want[i].cost)
		}
	}
	return ""
}

// The certificate's scan finds the analytic tier's best floor: minFloor(+Inf)
// equals AnalyticTop(1)'s Floor (+Inf where nothing ranks), and a smaller ub
// comes back unchanged. The per-tile bound both best-first walks order tiles
// by is ≤ the tight floor of every configuration of the tile, and the
// analytic scan keeps exactly the full enumeration's top configurations.
func TestMinFloorMatchesAnalyticTop(t *testing.T) {
	sps := certifySpaces(t, 71, 24)
	small := len(sps) // the per-configuration check runs on these
	for _, s := range resnet18Layers()[:5] {
		for _, a := range []memsim.Arch{memsim.V100, memsim.GFX906} {
			for _, kind := range Kinds {
				if sp, err := NewSpace(s.Shape, a, kind, 0, true); err == nil {
					sps = append(sps, sp)
				}
			}
		}
	}
	for i, sp := range sps {
		if d := scanMismatch(sp); d != "" {
			t.Fatalf("%s %v %s pruned=%v: %s", sp.Arch.Name, sp.Shape, sp.Kind, sp.Pruned, d)
		}
		want := math.Inf(1)
		if top, err := sp.AnalyticTop(1, 1); err == nil {
			want = top[0].Floor
		}
		if got := sp.minFloor(math.Inf(1)); got != want {
			t.Fatalf("%s %v %s pruned=%v: minFloor %v, AnalyticTop(1) floor %v",
				sp.Arch.Name, sp.Shape, sp.Kind, sp.Pruned, got, want)
		}
		if below := want / 2; sp.minFloor(below) != below {
			t.Errorf("%s %v %s: minFloor(%v) = %v, want its ub", sp.Arch.Name, sp.Shape, sp.Kind, below, sp.minFloor(below))
		}
		if i >= small {
			continue
		}
		sp.enumerate(func(c conv.Config) bool {
			if tile, tight := sp.floor(c, tileRates), sp.analyticFloor(c); tile > tight {
				t.Fatalf("%s %v %s: tile bound %v > tight floor %v for %v", sp.Arch.Name, sp.Shape, sp.Kind, tile, tight, c)
			}
			return true
		})
	}
}

// One proof answers every question as the space's least floor m does: on
// seeded random dense and grouped spaces, a proof fed rising, falling and
// mixed sequences of values around m — nextafter neighbours, 0, +Inf and m
// itself among them, orders the engine never issues included — answers each
// atLeast(x) with x ≤ m, and what it keeps stays true: lo ≤ m, and lo = m
// once exact. So it does when shown configurations between the queries
// (sampled ones, and the optimum), and hi stays ≥ m.
func TestProofMatchesMinFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	spaces := 0
	for trial := 0; trial < 24; trial++ {
		s := randomSmallShape(rng)
		if trial%3 == 2 {
			s = randomGroupedShape(rng)
		}
		a := memsim.Catalog[rng.Intn(len(memsim.Catalog))]
		for _, sp := range boundTestSpaces(t, s, a) {
			spaces++
			m := sp.minFloor(math.Inf(1))
			xs := []float64{m, math.Inf(1), 0, m / gapRatio, m * gapRatio,
				math.Nextafter(m, math.Inf(1)), math.Nextafter(m, 0)}
			for range 8 {
				x := m * 2 * rng.Float64()
				xs = append(xs, x, math.Nextafter(x, math.Inf(1)))
			}
			rising := slices.Clone(xs)
			slices.Sort(rising)
			falling := slices.Clone(rising)
			slices.Reverse(falling)
			mixed := slices.Clone(xs)
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			// A shown configuration bounds m from above; the shown runs
			// show sampled ones between queries, and the optimum too.
			top, err := sp.AnalyticTop(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []struct {
				name string
				seq  []float64
				show bool
			}{{"rising", rising, false}, {"falling", falling, false}, {"mixed", mixed, false},
				{"rising shown", rising, true}, {"falling shown", falling, true}, {"mixed shown", mixed, true}} {
				var p proof
				for i, x := range q.seq {
					if q.show {
						p.show(sp, sp.Sample(rng))
						if i == len(q.seq)/2 {
							p.show(sp, top[0].Config)
						}
					}
					if got := p.atLeast(sp, x); got != (x <= m) {
						t.Fatalf("%s %v %s, %s query %d: atLeast(%v) = %v, least floor %v",
							sp.Arch.Name, sp.Shape, sp.Kind, q.name, i, x, got, m)
					}
					if p.lo > m || (p.exact && p.lo != m) || (p.hi > 0 && p.hi < m) {
						t.Fatalf("%s %v %s, %s query %d: proof {lo %v, hi %v, exact %v}, least floor %v",
							sp.Arch.Name, sp.Shape, sp.Kind, q.name, i, p.lo, p.hi, p.exact, m)
					}
				}
			}
		}
	}
	if spaces == 0 {
		t.Fatal("no space built")
	}
}

// A search that stops on the certificate ends on the brute-force optimum of
// its space.
func TestCertifiedIsOptimal(t *testing.T) {
	certified := 0
	for _, sp := range certifySpaces(t, 73, 18) {
		mm := NewMemoMeasure(sp.Arch, sp.Shape, sp.Kind)
		best := math.Inf(1)
		sp.enumerate(func(c conv.Config) bool {
			if m, ok := mm.Measure(c); ok && m.Seconds < best {
				best = m.Seconds
			}
			return true
		})
		if math.IsInf(best, 1) {
			continue
		}
		tr, err := Tune(sp, mm.Measure, smallOpts(64, 5))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Stop == StopCertified {
			certified++
			if tr.BestM.Seconds != best {
				t.Fatalf("%s %v %s: certified at %v, optimum %v", sp.Arch.Name, sp.Shape, sp.Kind, tr.BestM.Seconds, best)
			}
		}
	}
	if certified == 0 {
		t.Fatal("no search certified: the property is vacuous")
	}
}

// The certificate is a bound-guided stop: a bound-blind run (NoPrune) has
// no oracle and never stops on it, on a layer where the guided run does.
func TestCertificateNeverFiresUnderNoPrune(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	opts := DefaultOptions()
	opts.Patience = 0
	guided, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoPrune = true
	blind, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Stop != StopCertified || blind.Stop != StopBudget || blind.Measurements != opts.Budget {
		t.Fatalf("guided stopped on %v, NoPrune on %v at %d of %d; want certified and budget",
			guided.Stop, blind.Stop, blind.Measurements, opts.Budget)
	}
}

// A measurable configuration with no useful bound (floor 0) proves nothing
// about itself, so while one exists the certificate never fires: here a row
// that claims no launch for a channel tile of 1 leaves every such
// configuration unbounded yet measurable.
func TestCertificateNeverFiresOverAnUnboundedConfig(t *testing.T) {
	measure := KindMeasurer(arch, layer(), Direct)
	opts := smallOpts(120, 11)
	ref, err := Tune(mustSpace(t, true), measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpace(t, true)
	row := *sp.row
	row.launchable = func(_ shapes.ConvShape, c conv.Config) bool { return c.TileZ != 1 }
	sp.row = &row
	if got := sp.minFloor(math.Inf(1)); got != 0 {
		t.Fatalf("minFloor %v over a space with unbounded measurable configurations, want 0", got)
	}
	tr, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stop != StopCertified || tr.Stop == StopCertified || tr.Measurements != opts.Budget {
		t.Fatalf("reference stopped on %v; unbounded space on %v at %d of %d, want certified and not",
			ref.Stop, tr.Stop, tr.Measurements, opts.Budget)
	}
}

// gapCase is a search that stops on the gap before Patience: a cold direct
// one, on the graded wait against its own incumbent; the implicit-GEMM search
// of MobileNetV1's first layer led by that layer's direct verdict, which lies
// below every floor of its space, so the waiver stops it after the booking
// of its first valid measurement; and the Direct search of a Winograd-led
// layer led by the layer's Winograd verdict, which lies below every floor of
// Direct's space, so the waiver stops it against the lead's incumbent, on
// its own incumbent's proof too — once led by that verdict itself, and once
// by a staged lead whose incumbent falls as it measures, so the reference is
// the lead's incumbent at leadAhead times the follower's measurements, above
// the lead's final verdict. The Direct-led waiver comes last.
type gapCase struct {
	name   string
	sp     *Space
	mm     Measurer
	opts   Options
	waived bool // the stop must be the waiver's
}

func gapCases(t *testing.T) []gapCase {
	t.Helper()
	layers := resnet18Layers()
	search := func(s shapes.ConvShape, kind Kind, lead func(int) float64) gapCase {
		sp, err := NewSpace(s, arch, kind, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Seed = 2
		opts.lead = lead
		return gapCase{name: fmt.Sprintf("%s %v", kind, s), sp: sp, mm: KindMeasurer(arch, s, kind), opts: opts,
			waived: lead != nil}
	}
	verdict := func(c gapCase) func(int) float64 {
		tr, err := Tune(c.sp, c.mm, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		return func(int) float64 { return tr.BestM.Seconds }
	}
	stage2 := layers[4].Shape
	wino := verdict(search(stage2, Winograd, nil))
	staged := search(stage2, Direct, func(n int) float64 { return wino(n) * (1 + 4/float64(n+40)) })
	staged.name += " staged"
	mobile0 := shapes.ConvShape{Batch: 1, Cin: 3, Hin: 224, Win: 224, Cout: 32, Hker: 3, Wker: 3, Strid: 2, Pad: 1}
	directLed := search(mobile0, ImplicitGEMM, verdict(search(mobile0, Direct, nil)))
	directLed.opts.leadDirect = true
	return []gapCase{search(layers[5].Shape, Direct, nil), search(stage2, Direct, wino), staged, directLed}
}

// The gap stop is a bound-guided stop: it records the incumbent, or on a
// waived stop the lead's incumbent at leadAhead times the search's
// measurements, below every floor; and a bound-blind run (NoPrune) never
// stops on it, on searches where the guided run does.
func TestGapNeverFiresUnderNoPrune(t *testing.T) {
	for _, c := range gapCases(t) {
		guided, err := Tune(c.sp, c.mm, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		r := guided.BestM.Seconds
		if c.waived {
			r = c.opts.lead(leadAhead * guided.Measurements)
		}
		if guided.Stop != StopGap || guided.GapRef != r || guided.Waived != c.waived ||
			guided.Measurements-guided.ConvergedAt >= c.opts.Patience {
			t.Errorf("%s: guided stopped on %v against %v (waived %t) %d flat, want gap against %v (waived %t) before Patience",
				c.name, guided.Stop, guided.GapRef, guided.Waived, guided.Measurements-guided.ConvergedAt, r, c.waived)
		}
		c.opts.NoPrune = true
		blind, err := Tune(c.sp, c.mm, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if blind.Stop == StopGap || blind.GapRef != 0 || blind.Waived || blind.Measurements <= guided.Measurements {
			t.Errorf("%s: NoPrune stopped on %v against %v after %d measurements, guided after %d",
				c.name, blind.Stop, blind.GapRef, blind.Measurements, guided.Measurements)
		}
	}
}

// The gap stop reads the booked prefix only, so it fires at the same
// measurement, against the same reference, at any worker count.
func TestGapStopDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range gapCases(t) {
		ref, err := Tune(c.sp, c.mm, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stop != StopGap || ref.Waived != c.waived {
			t.Fatalf("%s: stopped on %v (waived %t), want gap (waived %t)", c.name, ref.Stop, ref.Waived, c.waived)
		}
		for _, workers := range []int{4, 9} {
			o := c.opts
			o.Workers = workers
			tr, err := Tune(c.sp, c.mm, o)
			if err != nil {
				t.Fatal(err)
			}
			if !traceEqual(ref, tr) {
				t.Errorf("%s workers=%d: trace diverges (stop %v after %d against %v, want %v after %d against %v)",
					c.name, workers, tr.Stop, tr.Measurements, tr.GapRef, ref.Stop, ref.Measurements, ref.GapRef)
			}
		}
	}
}

// The waiver, like the rest of the gap stop, needs an incumbent: a
// Direct-led follower, which asks it after every booking, whose first
// measurements all fail goes on measuring instead of stopping on a proof
// against no verdict.
func TestWaiverWaitsForAnIncumbent(t *testing.T) {
	cases := gapCases(t)
	c := cases[len(cases)-1]
	if !c.waived || !c.opts.leadDirect {
		t.Fatal("the last gap case is not the Direct-led waived one")
	}
	failed := 0
	measure := func(cfg conv.Config) (Measurement, bool) {
		if failed < 40 {
			failed++
			return Measurement{}, false
		}
		return c.mm(cfg)
	}
	tr, err := Tune(c.sp, measure, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Measurements <= failed || tr.Stop != StopGap || !(tr.GapRef > 0) {
		t.Errorf("stopped on %v against %v after %d measurements, %d failed; want a gap stop on a verdict",
			tr.Stop, tr.GapRef, tr.Measurements, failed)
	}
}

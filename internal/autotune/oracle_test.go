package autotune_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/shapes"
)

// zooAndNovelDeck is every distinct zoo layer shape, then the 3×3
// unit-stride shapes the benchmark's novel networks draw from.
func zooAndNovelDeck() []shapes.ConvShape {
	seen := make(map[shapes.ConvShape]bool)
	var deck []shapes.ConvShape
	for _, fx := range zooFixtures() {
		for _, l := range fx.layers {
			if !seen[l.Shape] {
				seen[l.Shape] = true
				deck = append(deck, l.Shape)
			}
		}
	}
	chans, sizes := []int{16, 32, 64, 128, 256}, []int{7, 14, 28, 56}
	for _, cin := range chans {
		for _, cout := range chans {
			for _, hw := range sizes {
				s := shapes.ConvShape{Batch: 1, Cin: cin, Hin: hw, Win: hw, Cout: cout, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
				if !seen[s] {
					seen[s] = true
					deck = append(deck, s)
				}
			}
		}
	}
	return deck
}

// TestEveryAxisFitsARow: on every architecture memsim.ByName accepts (the
// catalog), for every kind over the zoo and novel deck, each value a space
// can emit on an axis fits its narrowed cached-row field, and sampled
// configs come back from a cached row unchanged.
func TestEveryAxisFitsARow(t *testing.T) {
	spaces := 0
	for _, a := range memsim.Catalog {
		for _, s := range zooAndNovelDeck() {
			for _, kind := range autotune.Kinds {
				sp, err := autotune.NewSpace(s, a, kind, 0, true)
				if err != nil {
					continue
				}
				spaces++
				if d := sp.RowFitMismatch(64); d != "" {
					t.Errorf("%s %v %s: %s", a.Name, s, kind, d)
				}
			}
		}
	}
	if spaces == 0 {
		t.Fatal("no space built")
	}
	t.Logf("%d (arch, kind, shape) spaces", spaces)
}

// TestZooMinFloorMatchesAnalyticTop: over every (kind, shape) space of the
// zoo on the benchmark's architecture, and of the deck of 3×3 unit-stride
// shapes the benchmark's novel networks draw from, the analytic scan keeps
// exactly the full enumeration's top configurations and the certificate's
// scan finds exactly the analytic tier's best floor.
func TestZooMinFloorMatchesAnalyticTop(t *testing.T) {
	if testing.Short() {
		t.Skip("scans every zoo space three times")
	}
	spaces := 0
	for _, s := range zooAndNovelDeck() {
		for _, kind := range autotune.Kinds {
			sp, err := autotune.NewSpace(s, laneArch, kind, 0, true)
			if err != nil {
				continue
			}
			spaces++
			if d := sp.ScanMismatch(); d != "" {
				t.Errorf("%v %s: %s", s, kind, d)
			}
			want := math.Inf(1)
			if v, err := sp.Analytic(1); err == nil {
				want = v.Floor
			}
			if got := sp.MinFloor(); got != want {
				t.Errorf("%v %s: MinFloor %v, AnalyticTop(1) floor %v", s, kind, got, want)
			}
		}
	}
	t.Logf("%d (kind, shape) spaces", spaces)
}

// TestZooOracle enumerates and dry-measures every configuration of each
// search of BenchmarkZooSweepCold's pass at engine seeds 0–3, which splits
// the pass's bound_gap (verdict / minimum floor) into its two halves: the
// search's regret (verdict / true optimum) and the bound's looseness
// (optimum / minimum tight floor of the space). A search whose optimum
// equals that floor is certifiable: the engine can prove it finished. Every
// configuration must measure at or above its tight floor, every
// search that stopped on the certificate must end on the enumerated optimum,
// and that optimum must be the minimum floor; every search that stopped on
// the gap f flat measurements after its last improvement must hold its
// proof, GapRef / g(f) ≤ the minimum floor ≤ the optimum (g(f) < G, f
// below Patience), and every waived one its lead's verdict below that floor (led by
// Winograd, its own verdict within G of it too); and every stop's fields
// must agree (StopMismatch). The per-seed, per-kind tallies, the stop mix — searches,
// off-optimum searches and measurements per (kind, stop), then the Patience
// tax: the measurements after each search's last improvement, and the late
// jumps, improvements of at least 2 % after at least 40 measurements
// without one, with the largest one's factor, and the tile-shape probes'
// credit: the probes measured and the improvements they booked — and the layer
// meter — the distinct zoo shapes whose reply verdict is the best optimum
// over the kinds searched for them, and the pass's summed network time — are
// pinned in testdata/oracle.golden; regenerate it with
//
//	go test ./internal/autotune -run TestZooOracle -update
//
// only for a change that is meant to move verdicts.
//
// The meter is seeds 0–15, this test's and the two below, and a change that
// moves it is judged on the sixteen-seed sums (testdata/meter.jsonl):
//   - Layers at the optimum move within ±12 of the parent's sum by noise.
//     At one commit the four quartets read 342–356 of 372 (standard
//     deviation 5.8), and a change that re-draws the searches moves a sum
//     of four quartets by about 2 × 5.8. A quartet alone decides nothing.
//   - Measurements and network time are priced together: each measurement
//     at 60 ms (a warmed, repeated kernel timing), the summed simulated
//     network time at 10⁶ serves. A change that trades one for the other
//     gains when Σ measurements × 0.06 s + Σ network s × 10⁶ falls; a
//     layer loss beyond the band is reported beside that price.
//   - Layers are read beside the regret on each `layers` line: the pass's
//     network time above the time with every layer at the best enumerated
//     optimum over its kinds, and the largest one layer contributes. Layers
//     count how many shapes miss their optimum, the regret how much it
//     costs: a change that loses layers in the band while its Σ regret
//     moves by less than the price of its measurements lost nothing a
//     serve would pay for.
//
// A change is judged on V100 and read on a held-out architecture
// (TestZooOracle1080Ti), so that constants tuned on one machine's timings
// are not tuned to them alone.
func TestZooOracle(t *testing.T) {
	zooOracleGolden(t, "oracle.golden", laneArch, 0)
}

// TestZooOracleHeldOut is TestZooOracle at engine seeds 4–7, pinned in
// testdata/oracle_heldout.golden beside the first quartet's, so a
// verdict-moving change shows on both.
func TestZooOracleHeldOut(t *testing.T) {
	zooOracleGolden(t, "oracle_heldout.golden", laneArch, 4)
}

// TestZooOracleSeeds8To15 is TestZooOracle at engine seeds 8–15, the
// meter's other half, pinned in testdata/oracle_seeds8_15.golden.
func TestZooOracleSeeds8To15(t *testing.T) {
	zooOracleGolden(t, "oracle_seeds8_15.golden", laneArch, 8, 12)
}

// TestZooOracle1080Ti is TestZooOracle's pass on the GTX 1080 Ti, a held-out
// architecture, at engine seeds 0–3, pinned in testdata/oracle_1080ti.golden.
func TestZooOracle1080Ti(t *testing.T) {
	zooOracleGolden(t, "oracle_1080ti.golden", memsim.GTX1080Ti, 0)
}

// zooOracleGolden runs the oracle on arch at the four engine seeds from each
// of firsts and checks the tallies against the named golden.
func zooOracleGolden(t *testing.T, name string, arch memsim.Arch, firsts ...int64) {
	if testing.Short() {
		t.Skip("measures every configuration of 146 spaces per seed")
	}
	var golden bytes.Buffer
	for _, first := range firsts {
		for seed := first; seed < first+4; seed++ {
			zooOracle(t, arch, seed, &golden)
		}
	}
	autotune.CheckGolden(t, name, golden.Bytes())
}

// TestVGG19WinogradBasinGone: VGG-19's conv3_x Winograd search (Cin 256,
// 56², Cout 256) in the cold zoo pass at engine seeds 0, 2, 4 and 14 used to
// settle on its space's least-floor tile, e=4 8×8×32, at 180.107 µs, and
// never measure the optimum, e=4 4×28×16 at 169.549 µs: the walkers step
// one axis at a time, and that tile changes all three. The tile-shape
// probes reach it: the search ends on its enumerated optimum.
func TestVGG19WinogradBasinGone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four cold zoo passes")
	}
	var layer autotune.NetworkLayer
	for _, l := range models.VGG19().NetworkLayers() {
		if l.Name == "conv3_x" {
			layer = l
		}
	}
	want := groupsKey(autotune.Winograd, layer.Shape)
	for _, seed := range []int64{0, 2, 4, 14} {
		tune := autotune.DefaultOptions()
		tune.Seed = seed
		_, searches := coldZooPass(t, tune, autotune.NewCache())
		i := slices.IndexFunc(searches, func(s autotune.SearchTrace) bool { return groupsKey(s.Space.Kind, s.Space.Shape) == want })
		if i < 0 {
			t.Fatalf("seed %d: no Winograd search of %v in the pass", seed, layer.Shape)
		}
		s := searches[i]
		opt, ok := optimumOf(t, s.Space)
		if !ok || math.Abs(opt.Seconds*1e6-169.549) > 5e-4 || s.BestM.Seconds != opt.Seconds {
			t.Errorf("seed %d: %v Winograd ended at %v s after %d measurements (probes %+v), optimum %v s",
				seed, layer.Shape, s.BestM.Seconds, s.Measurements, s.Probes, opt.Seconds)
		}
	}
}

// spaceOptima holds each zoo space's enumerated optimum, keyed by (arch,
// kind, shape). The spaces are the same at every engine seed, so every
// oracle of a run shares one enumeration per space, which also checks that
// space's floors pointwise once.
var spaceOptima struct {
	sync.Mutex
	m map[optimumKey]spaceOptimum
}

type optimumKey struct {
	arch   string
	search autotune.Search
}

type spaceOptimum struct {
	m  autotune.Measurement
	ok bool
}

// optimumOf is sp.Optimum, enumerated once per space per run. A tight floor
// above a measurement fails the test that enumerates the space.
func optimumOf(t *testing.T, sp *autotune.Space) (autotune.Measurement, bool) {
	spaceOptima.Lock()
	defer spaceOptima.Unlock()
	key := optimumKey{sp.Arch.Name, autotune.Search{Kind: sp.Kind, Shape: sp.Shape}}
	if o, hit := spaceOptima.m[key]; hit {
		return o.m, o.ok
	}
	opt, above, ok := sp.Optimum()
	// Admissibility on the whole zoo: no configuration measures below its
	// tight floor, so no floor the engine prunes, certifies, stops or waives
	// on claims more than the space can deliver.
	if above != "" {
		t.Errorf("%v %s: %s", sp.Shape, sp.Kind, above)
	}
	if spaceOptima.m == nil {
		spaceOptima.m = make(map[optimumKey]spaceOptimum)
	}
	spaceOptima.m[key] = spaceOptimum{opt, ok}
	return opt, ok
}

// oracleTally is one seed's oracle numbers over a set of searches.
type oracleTally struct {
	searches, atOptimum, certified, certifiable, measurements int
	regretLog, regretMax, looseLog                            float64
}

func (a *oracleTally) add(regret, looseness float64, certified, certifiable bool, measurements int) {
	a.searches++
	a.regretLog += math.Log(regret)
	a.regretMax = max(a.regretMax, regret)
	a.looseLog += math.Log(looseness)
	a.measurements += measurements
	if regret == 1 {
		a.atOptimum++
	}
	if certified {
		a.certified++
	}
	if certifiable {
		a.certifiable++
	}
}

func (a *oracleTally) String() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	n := float64(a.searches)
	return fmt.Sprintf("%d searches, %d at the optimum, regret geomean %s max %s, %d certified of %d certifiable, looseness geomean %s, %d measurements",
		a.searches, a.atOptimum, g(math.Exp(a.regretLog/n)), g(a.regretMax),
		a.certified, a.certifiable, g(math.Exp(a.looseLog/n)), a.measurements)
}

// stopMix is one (kind, stop) cell of a pass: its searches, those that ended
// off their space's optimum, and the measurements they took.
type stopMix struct{ searches, off, measurements int }

type stopKey struct {
	kind autotune.Kind
	stop autotune.StopReason
}

// zooOracle checks one seed's pass on arch against the enumerated optima and
// writes its tallies, over all searches and per kind, its stop mix and its
// layer meter to golden.
func zooOracle(t *testing.T, arch memsim.Arch, seed int64, golden *bytes.Buffer) {
	tune := autotune.DefaultOptions()
	tune.Seed = seed
	sweeps, searches := coldZooPassOn(t, arch, tune, autotune.NewCache())

	var all oracleTally
	perKind := make(map[autotune.Kind]*oracleTally)
	mix := make(map[stopKey]stopMix)
	optima := make(map[autotune.Search]float64)
	waived := 0
	var tax patienceTax
	var probes autotune.Credit
	for _, s := range searches {
		sp := s.Space
		opt, ok := optimumOf(t, sp)
		if !ok {
			t.Fatalf("seed %d: %v %s: nothing measures", seed, sp.Shape, sp.Kind)
		}
		optima[groupsKey(sp.Kind, sp.Shape)] = opt.Seconds
		floor := sp.MinFloor()
		verdict := s.BestM.Seconds
		if !(floor <= opt.Seconds) || verdict < opt.Seconds {
			t.Fatalf("seed %d: %v %s: want floor %v ≤ optimum %v ≤ verdict %v", seed, sp.Shape, sp.Kind, floor, opt.Seconds, verdict)
		}
		regret, looseness := verdict/opt.Seconds, opt.Seconds/floor
		t.Logf("seed %d: %v %s: regret %.4f looseness %.4f stop %v after %d",
			seed, sp.Shape, sp.Kind, regret, looseness, s.Stop, s.Measurements)
		// A booked stop is never rewritten: a waiver stays a gap stop, and
		// a certified search ends at the booking that proved it.
		if msg := autotune.StopMismatch(s.Trace); msg != "" {
			t.Errorf("seed %d: %v %s: %s", seed, sp.Shape, sp.Kind, msg)
		}
		certified := s.Stop == autotune.StopCertified
		if certified && (verdict != opt.Seconds || opt.Seconds != floor) {
			t.Errorf("seed %d: %v %s: certified at %v, optimum %v, minimum floor %v",
				seed, sp.Shape, sp.Kind, verdict, opt.Seconds, floor)
		}
		// A gap stop taken f flat measurements after the last improvement
		// claims that no measurable configuration has a floor below
		// GapRef / g(f), so neither the minimum floor nor the optimum above
		// it lies below that. The pass resumes nothing and counts every
		// improvement, so f is the measurements after ConvergedAt.
		if g := autotune.GapWait(s.Measurements - s.ConvergedAt); s.Stop == autotune.StopGap && !(s.GapRef/g <= floor) {
			t.Errorf("seed %d: %v %s: gap stop against %v at g %v, minimum floor %v, optimum %v",
				seed, sp.Shape, sp.Kind, s.GapRef, g, floor, opt.Seconds)
		}
		// A waived stop claims that the lead's incumbent it stopped against,
		// never below the lead's verdict, lies below every floor of the
		// space, so the kind cannot win the layer. A Winograd-led one also
		// proves the gap on its own incumbent: a "winograd": false request
		// reads its verdict without the lead's.
		if s.Waived {
			waived++
			if s.Stop != autotune.StopGap || !(s.Lead <= s.GapRef) || !(s.Lead < floor) ||
				s.LeadKind == autotune.Winograd && !(verdict/autotune.GapRatio <= floor) {
				t.Errorf("seed %d: %v %s: waived %v stop against %v, %s lead verdict %v, minimum floor %v, verdict %v",
					seed, sp.Shape, sp.Kind, s.Stop, s.GapRef, s.LeadKind, s.Lead, floor, verdict)
			}
		}
		a := perKind[sp.Kind]
		if a == nil {
			a = &oracleTally{}
			perKind[sp.Kind] = a
		}
		for _, a := range []*oracleTally{&all, a} {
			a.add(regret, looseness, certified, opt.Seconds == floor, s.Measurements)
		}
		m := mix[stopKey{sp.Kind, s.Stop}]
		m.searches++
		m.measurements += s.Measurements
		if regret != 1 {
			m.off++
		}
		mix[stopKey{sp.Kind, s.Stop}] = m
		tax.add(s.Trace)
		probes.Measured += s.Probes.Measured
		probes.Improved += s.Probes.Improved
	}
	t.Logf("seed %d: %v; %d waived gap stops", seed, &all, waived)
	fmt.Fprintf(golden, "seed %d all: %v\n", seed, &all)
	for _, kind := range autotune.Kinds {
		if a := perKind[kind]; a != nil {
			fmt.Fprintf(golden, "seed %d %s: %v\n", seed, kind, a)
		}
	}
	fmt.Fprintf(golden, "seed %d stops:", seed)
	sep := " "
	for _, kind := range autotune.Kinds {
		for stop := autotune.StopBudget; stop <= autotune.StopGap; stop++ {
			if m, ok := mix[stopKey{kind, stop}]; ok {
				fmt.Fprintf(golden, "%s%s %v %d searches %d off the optimum %d measurements",
					sep, kind, stop, m.searches, m.off, m.measurements)
				sep = "; "
			}
		}
	}
	fmt.Fprintf(golden, "; %d measurements after the last improvement, %d late jumps, largest %s; %d probes measured, %d improved\n",
		tax.after, tax.jumps, strconv.FormatFloat(tax.largest, 'g', -1, 64), probes.Measured, probes.Improved)

	// The layer meter: a reply carries the min over a layer's kinds, so a
	// shape is at the optimum when, in every sweep that holds it, its
	// verdict is the best optimum over the kinds searched for it there. A
	// layer's regret is its verdict's time above that optimum, times its
	// repeat count.
	atOptimum := make(map[shapes.ConvShape]bool)
	networkMS, regretUS, worstUS, worst := 0.0, 0.0, 0.0, "none"
	for i, fx := range zooFixtures() {
		opts := zooOptions(fx, tune)
		networkMS += autotune.NetworkSeconds(sweeps[i]) * 1e3
		for _, v := range sweeps[i] {
			best := math.Inf(1)
			for _, k := range autotune.CandidateKinds(v.Layer.Shape, opts.Winograd, opts.Kinds) {
				if opt, ok := optima[groupsKey(k, v.Layer.Shape)]; ok {
					best = min(best, opt)
				}
			}
			key := groupsKey(autotune.Direct, v.Layer.Shape).Shape
			at, seen := atOptimum[key]
			atOptimum[key] = (at || !seen) && v.M.Seconds == best
			r := (v.M.Seconds - best) * float64(max(v.Layer.Repeat, 1)) * 1e6
			regretUS += r
			if r > worstUS {
				worstUS, worst = r, fx.name+" "+v.Layer.Name
			}
		}
	}
	layers := 0
	for _, at := range atOptimum {
		if at {
			layers++
		}
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(golden, "seed %d layers: %d of %d shapes at the optimum, network %s ms, regret %s µs, largest %s µs (%s)\n",
		seed, layers, len(atOptimum), g(networkMS), g(regretUS), g(worstUS), worst)
}

// patienceTax is what a pass spends after its searches stop improving:
// after sums each search's measurements past its last improvement, and a
// late jump is an improvement of at least lateJumpFactor after at least
// lateJumpFlat measurements without one — what that spending found; largest
// is the largest late jump's factor (old seconds / new), 1 with none.
type patienceTax struct {
	after, jumps int
	largest      float64
}

const (
	lateJumpFlat   = 40
	lateJumpFactor = 1.02
)

func (p *patienceTax) add(tr *autotune.Trace) {
	p.after += tr.Measurements - tr.ConvergedAt
	p.largest = max(p.largest, 1)
	best, last := math.Inf(1), 0
	for i, h := range tr.History {
		if !h.OK || !(h.M.Seconds < best) {
			continue
		}
		if f := best / h.M.Seconds; last > 0 && i-last >= lateJumpFlat && f >= lateJumpFactor {
			p.jumps++
			p.largest = max(p.largest, f)
		}
		best, last = h.M.Seconds, i+1
	}
}

// groupsKey is the search of (kind, s) keyed as the sweep dedups it: groups
// 0 and 1 are one shape.
func groupsKey(kind autotune.Kind, s shapes.ConvShape) autotune.Search {
	s.Groups = s.G()
	return autotune.Search{Kind: kind, Shape: s}
}

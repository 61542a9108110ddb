package autotune_test

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/autotune"
	"repro/internal/memsim"
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
// the gap must hold its proof, GapRef / G ≤ the minimum floor ≤ the
// optimum, and every waived one its lead's verdict below that floor (led by
// Winograd, its own verdict within G of it too). The per-seed, per-kind tallies, the stop mix — searches,
// off-optimum searches and measurements per (kind, stop) — and the layer
// meter — the distinct zoo shapes whose reply verdict is the best optimum
// over the kinds searched for them, and the pass's summed network time — are
// pinned in testdata/oracle.golden; regenerate it with
//
//	go test ./internal/autotune -run TestZooOracle -update
//
// only for a change that is meant to move verdicts.
func TestZooOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every configuration of 146 spaces per seed")
	}
	var golden bytes.Buffer
	for seed := int64(0); seed < 4; seed++ {
		zooOracle(t, seed, &golden)
	}
	autotune.CheckGolden(t, "oracle.golden", golden.Bytes())
}

// TestZooOracleHeldOut is TestZooOracle at engine seeds 4–7, the meter's
// held-out half: the same per-search checks, its tallies pinned in
// testdata/oracle_heldout.golden beside the first half's, so a
// verdict-moving change shows on both halves.
func TestZooOracleHeldOut(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every configuration of 146 spaces per seed")
	}
	var golden bytes.Buffer
	for seed := int64(4); seed < 8; seed++ {
		zooOracle(t, seed, &golden)
	}
	autotune.CheckGolden(t, "oracle_heldout.golden", golden.Bytes())
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

// zooOracle checks one seed's pass against the enumerated optima and writes
// its tallies, over all searches and per kind, its stop mix and its layer
// meter to golden.
func zooOracle(t *testing.T, seed int64, golden *bytes.Buffer) {
	tune := autotune.DefaultOptions()
	tune.Seed = seed
	sweeps, searches := coldZooPass(t, tune, autotune.NewCache())

	var all oracleTally
	perKind := make(map[autotune.Kind]*oracleTally)
	mix := make(map[stopKey]stopMix)
	optima := make(map[autotune.Search]float64)
	waived := 0
	for _, s := range searches {
		sp := s.Space
		opt, above, ok := sp.Optimum()
		if !ok {
			t.Fatalf("seed %d: %v %s: nothing measures", seed, sp.Shape, sp.Kind)
		}
		// Admissibility on the whole zoo: no configuration measures below
		// its tight floor, so no floor the engine prunes, certifies, stops
		// or waives on claims more than the space can deliver.
		if above != "" {
			t.Errorf("seed %d: %v %s: %s", seed, sp.Shape, sp.Kind, above)
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
		certified := s.Stop == autotune.StopCertified
		if certified && (verdict != opt.Seconds || opt.Seconds != floor) {
			t.Errorf("seed %d: %v %s: certified at %v, optimum %v, minimum floor %v",
				seed, sp.Shape, sp.Kind, verdict, opt.Seconds, floor)
		}
		// A gap stop claims that no measurable configuration has a floor
		// below GapRef / G, so neither the minimum floor nor the optimum
		// above it lies below that.
		if s.Stop == autotune.StopGap && !(s.GapRef/autotune.GapRatio <= floor) {
			t.Errorf("seed %d: %v %s: gap stop against %v, minimum floor %v, optimum %v",
				seed, sp.Shape, sp.Kind, s.GapRef, floor, opt.Seconds)
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
	fmt.Fprintln(golden)

	// The layer meter: a reply carries the min over a layer's kinds, so a
	// shape is at the optimum when, in every sweep that holds it, its
	// verdict is the best optimum over the kinds searched for it there.
	atOptimum := make(map[shapes.ConvShape]bool)
	networkMS := 0.0
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
		}
	}
	layers := 0
	for _, at := range atOptimum {
		if at {
			layers++
		}
	}
	fmt.Fprintf(golden, "seed %d layers: %d of %d shapes at the optimum, network %s ms\n",
		seed, layers, len(atOptimum), strconv.FormatFloat(networkMS, 'g', -1, 64))
}

// groupsKey is the search of (kind, s) keyed as the sweep dedups it: groups
// 0 and 1 are one shape.
func groupsKey(kind autotune.Kind, s shapes.ConvShape) autotune.Search {
	s.Groups = s.G()
	return autotune.Search{Kind: kind, Shape: s}
}

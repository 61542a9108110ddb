package autotune_test

import (
	"math"
	"testing"

	"repro/internal/autotune"
	"repro/internal/shapes"
)

// TestZooMinFloorMatchesAnalyticTop: over every (kind, shape) space of the
// zoo on the benchmark's architecture, and of the deck of 3×3 unit-stride
// shapes the benchmark's novel networks draw from, the analytic scan keeps
// exactly the full enumeration's top configurations and the certificate's
// scan finds exactly the analytic tier's best floor.
func TestZooMinFloorMatchesAnalyticTop(t *testing.T) {
	if testing.Short() {
		t.Skip("scans every zoo space three times")
	}
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
	spaces := 0
	for _, s := range deck {
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
// search of BenchmarkZooSweepCold's pass, which splits the pass's bound_gap
// (verdict / minimum floor) into its two halves: the search's regret
// (verdict / true optimum) and the bound's looseness (optimum / minimum
// tight floor of the space). A search whose optimum equals that floor is
// certifiable: the engine can prove it finished. Every search that stopped
// on the certificate must end on the enumerated optimum, and that optimum
// must be the minimum floor.
func TestZooOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every configuration of 146 spaces")
	}
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	_, searches := coldZooPass(t, tune, autotune.NewCache())

	type agg struct {
		n      int
		logSum float64
	}
	loose := make(map[autotune.Kind]*agg)
	var regretLog, regretMax float64
	atOptimum, certifiable, certified := 0, 0, 0
	for _, s := range searches {
		sp := s.Space
		opt, ok := sp.Optimum()
		if !ok {
			t.Fatalf("%v %s: nothing measures", sp.Shape, sp.Kind)
		}
		floor := sp.MinFloor()
		verdict := s.BestM.Seconds
		if !(floor <= opt.Seconds) || verdict < opt.Seconds {
			t.Fatalf("%v %s: want floor %v ≤ optimum %v ≤ verdict %v", sp.Shape, sp.Kind, floor, opt.Seconds, verdict)
		}
		regret := verdict / opt.Seconds
		t.Logf("%v %s: regret %.4f looseness %.4f stop %v after %d",
			sp.Shape, sp.Kind, regret, opt.Seconds/floor, s.Stop, s.Measurements)
		regretLog += math.Log(regret)
		regretMax = max(regretMax, regret)
		if regret == 1 {
			atOptimum++
		}
		a := loose[sp.Kind]
		if a == nil {
			a = &agg{}
			loose[sp.Kind] = a
		}
		a.n++
		a.logSum += math.Log(opt.Seconds / floor)
		if opt.Seconds == floor {
			certifiable++
		}
		if s.Stop == autotune.StopCertified {
			certified++
			if verdict != opt.Seconds || opt.Seconds != floor {
				t.Errorf("%v %s: certified at %v, optimum %v, minimum floor %v",
					sp.Shape, sp.Kind, verdict, opt.Seconds, floor)
			}
		}
	}
	n := len(searches)
	t.Logf("%d searches: %d at the optimum, regret geomean %.4f max %.4f; %d certifiable, %d certified",
		n, atOptimum, math.Exp(regretLog/float64(n)), regretMax, certifiable, certified)
	for _, kind := range autotune.Kinds {
		if a := loose[kind]; a != nil {
			t.Logf("looseness %s: geomean %.4f over %d searches", kind, math.Exp(a.logSum/float64(a.n)), a.n)
		}
	}
}

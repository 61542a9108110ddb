package autotune

import (
	"testing"

	"repro/internal/memsim"
)

// The engine rework (bound pruning, warm-started GBT, heap ranking) must
// not change what the search finds. On the benchmark layer the reworked
// engine — pruning on or off — lands on exactly the same best measurement
// as the preserved pre-rework loop for every tested budget and seed; where
// the winning configs differ in identity they are exact cost ties, which
// re-measuring both configs verifies.
func TestEngineMatchesLegacyVerdict(t *testing.T) {
	a := memsim.V100
	s := engineBenchLayer()
	measure := KindMeasurer(a, s, Direct)
	cases := []struct {
		budget int
		seed   int64
	}{{96, 1}, {96, 2}, {96, 3}, {96, 4}, {192, 1}}
	for _, tc := range cases {
		budget, seed := tc.budget, tc.seed
		{
			sp, err := NewSpace(s, a, Direct, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions()
			o.Budget = budget
			o.Patience = 0
			o.Seed = seed
			leg, err := legacyTune(sp, measure, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, noPrune := range []bool{false, true} {
				oo := o
				oo.NoPrune = noPrune
				cur, err := Tune(sp, measure, oo)
				if err != nil {
					t.Fatal(err)
				}
				if cur.BestM != leg.BestM {
					t.Errorf("budget=%d seed=%d noPrune=%v: best measurement %+v != legacy %+v",
						budget, seed, noPrune, cur.BestM, leg.BestM)
				}
				mc, okc := measure(cur.Best)
				ml, okl := measure(leg.Best)
				if !okc || !okl || mc.Seconds != ml.Seconds {
					t.Errorf("budget=%d seed=%d noPrune=%v: winners not cost-equivalent: %v (%v) vs %v (%v)",
						budget, seed, noPrune, cur.Best, mc.Seconds, leg.Best, ml.Seconds)
				}
			}
		}
	}
}

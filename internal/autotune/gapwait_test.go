package autotune

import (
	"fmt"
	"testing"

	"repro/internal/conv"
)

// gradedSearch is a cold search that stops on the gap before Patience: f
// fresh measurements after its last improvement, its own incumbent proved
// the ratio g(f) < G.
type gradedSearch struct {
	name string
	sp   *Space
	mm   Measurer
	opts Options
	tr   *Trace
}

// gradedSearches runs resnet18's layers cold, every kind, at engine seeds 0
// and 1, and returns the searches that stopped on the graded gap stop; it
// fails the test when there are none.
func gradedSearches(t *testing.T) []gradedSearch {
	t.Helper()
	patience := DefaultOptions().Patience
	var out []gradedSearch
	for _, l := range resnet18Layers() {
		for _, kind := range Kinds {
			sp, err := NewSpace(l.Shape, arch, kind, 0, true)
			if err != nil {
				continue
			}
			for _, seed := range []int64{0, 1} {
				opts := DefaultOptions()
				opts.Seed = seed
				mm := KindMeasurer(arch, l.Shape, kind)
				tr, err := Tune(sp, mm, opts)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Stop == StopGap && tr.Measurements-tr.ConvergedAt < patience {
					out = append(out, gradedSearch{fmt.Sprintf("%s %v seed %d", kind, l.Shape, seed), sp, mm, opts, tr})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no search stopped on the gap before Patience: the property is vacuous")
	}
	return out
}

// A gap stop taken f flat measurements after the last improvement, before
// Patience, holds its proof against its own incumbent: no measurable
// configuration has a tight floor below GapRef / g(f), so the verdict is
// within g(f) < G of the space's optimum.
func TestGradedGapStopHoldsItsProof(t *testing.T) {
	patience := DefaultOptions().Patience
	below := false
	for _, c := range gradedSearches(t) {
		f := c.tr.Measurements - c.tr.ConvergedAt
		g := gapWait(f, patience)
		below = below || g < 1.1
		if c.tr.GapRef != c.tr.BestM.Seconds || c.tr.Waived || !(g < gapRatio) || !(c.tr.GapRef/g <= c.sp.MinFloor()) {
			t.Errorf("%s: gap stop against %v (verdict %v, waived %t) after %d flat measurements, g %v, minimum floor %v",
				c.name, c.tr.GapRef, c.tr.BestM.Seconds, c.tr.Waived, f, g, c.sp.MinFloor())
		}
	}
	if !below {
		t.Error("no graded stop proved a ratio below 1.1: the early end of the schedule is untested")
	}
}

// The graded gap stop is a bound-guided stop: bound-blind (NoPrune), every
// search it stops runs on to its Patience, its budget or the end of its
// space instead; and it needs an incumbent: a search whose first
// measurements all fail asks it only from its first valid one, and stops, if
// on the gap, on a verdict and the flat measurements after it.
func TestGradedGapNeedsTheBoundAndAVerdict(t *testing.T) {
	patience := DefaultOptions().Patience
	cases := gradedSearches(t)
	for _, c := range cases {
		o := c.opts
		o.NoPrune = true
		blind, err := Tune(c.sp, c.mm, o)
		if err != nil {
			t.Fatal(err)
		}
		if blind.GapRef != 0 || blind.Stop != StopPatience && blind.Stop != StopBudget && blind.Stop != StopExhausted {
			t.Errorf("%s: NoPrune stopped on %v against %v after %d measurements, guided on the gap after %d",
				c.name, blind.Stop, blind.GapRef, blind.Measurements, c.tr.Measurements)
		}
	}
	c := cases[0]
	const failed = 40
	calls := 0
	measure := func(cfg conv.Config) (Measurement, bool) {
		if calls++; calls <= failed {
			return Measurement{}, false
		}
		return c.mm(cfg)
	}
	tr, err := Tune(c.sp, measure, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Measurements - tr.ConvergedAt
	if tr.Measurements <= failed || tr.ConvergedAt <= failed ||
		tr.Stop == StopGap && !(tr.GapRef > 0 && tr.GapRef/gapWait(f, patience) <= c.sp.MinFloor()) {
		t.Errorf("%s, first %d measurements failed: stopped on %v against %v after %d, last improved at %d",
			c.name, failed, tr.Stop, tr.GapRef, tr.Measurements, tr.ConvergedAt)
	}
}

// trailCase is resnet18's conv0 implicit-GEMM search, which alone runs on to
// Patience, with a lead that reads as its own incumbent at half the
// measurements asked, scaled by factor: a lead at factor 1 ties the
// follower's incumbent at every read, and one below 1 lies just below it.
func trailCase(t *testing.T) (sp *Space, mm Measurer, alone *Trace, lead func(factor float64) func(int) float64) {
	t.Helper()
	s := resnet18Layers()[0].Shape
	sp, err := NewSpace(s, arch, ImplicitGEMM, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	mm = KindMeasurer(arch, s, ImplicitGEMM)
	alone, err = Tune(sp, mm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if alone.Stop != StopPatience {
		t.Fatalf("alone, conv0 implicit GEMM stopped on %v after %d, want Patience", alone.Stop, alone.Measurements)
	}
	curve := BestSoFar(alone.History)
	lead = func(factor float64) func(int) float64 {
		return func(n int) float64 {
			return curve[min(max(n/leadAhead, 1), len(curve))-1] * factor
		}
	}
	return sp, mm, alone, lead
}

// A Direct-led follower whose lead's incumbent lies below its own stops on
// the short Patience, 2·BatchSize flat measurements or a batch more; one at
// its lead's incumbent keeps the full Patience and runs the search it runs
// alone.
func TestTrailingFollowerTakesTheShortPatience(t *testing.T) {
	sp, mm, alone, lead := trailCase(t)
	opts := DefaultOptions()
	opts.leadDirect = true
	trail := 2 * opts.BatchSize

	opts.lead = lead(1 - 1e-9)
	trailing, err := Tune(sp, mm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f := trailing.Measurements - trailing.ConvergedAt; trailing.Stop != StopPatience || f < trail || f >= trail+opts.BatchSize {
		t.Errorf("trailing its lead: stopped on %v after %d flat measurements, want Patience after %d to %d",
			trailing.Stop, f, trail, trail+opts.BatchSize-1)
	}

	opts.lead = lead(1)
	at, err := Tune(sp, mm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(at, alone) {
		t.Errorf("at its lead: stopped on %v after %d, alone on %v after %d",
			at.Stop, at.Measurements, alone.Stop, alone.Measurements)
	}
}

// A Winograd-led follower never takes the short Patience: a "winograd":
// false request reads its verdict without its lead's, so trailing the lead
// does not make it useless. Just below its lead, it runs the search it runs
// alone.
func TestWinogradLedFollowerKeepsThePatience(t *testing.T) {
	sp, mm, alone, lead := trailCase(t)
	opts := DefaultOptions()
	opts.lead = lead(1 - 1e-9)
	tr, err := Tune(sp, mm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(tr, alone) {
		t.Errorf("Winograd-led, below its lead: stopped on %v after %d, %d flat; alone on %v after %d",
			tr.Stop, tr.Measurements, tr.Measurements-tr.ConvergedAt, alone.Stop, alone.Measurements)
	}
}

package autotune_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/autotune"
	"repro/internal/shapes"
)

// novelNetworks are count networks of 2 or 3 unit-stride layers — kernels
// rotating over 1, 3 and 5 — that share no shape with the zoo or with each
// other: what a daemon holding the zoo still tunes fresh.
func novelNetworks(count int) [][]autotune.NetworkLayer {
	taken := make(map[shapes.ConvShape]bool)
	for _, fx := range zooFixtures() {
		for _, l := range fx.layers {
			taken[l.Shape] = true
		}
	}
	chans, sizes, kernels := []int{16, 32, 64, 128, 256}, []int{7, 14, 28, 56}, []int{1, 3, 5}
	rng := rand.New(rand.NewSource(5))
	nets := make([][]autotune.NetworkLayer, count)
	dealt := 0
	for i := range nets {
		for len(nets[i]) < 2+i%2 {
			k, hw := kernels[dealt%len(kernels)], sizes[rng.Intn(len(sizes))]
			s := shapes.ConvShape{Batch: 1, Cin: chans[rng.Intn(len(chans))], Cout: chans[rng.Intn(len(chans))],
				Hin: hw, Win: hw, Hker: k, Wker: k, Strid: 1, Pad: k / 2}
			if taken[s] {
				continue
			}
			taken[s] = true
			nets[i] = append(nets[i], autotune.NetworkLayer{Name: fmt.Sprintf("conv%d", len(nets[i])), Shape: s, Repeat: 1})
			dealt++
		}
	}
	return nets
}

// The prior memo moves no bit of a daemon's sweep sequence: the zoo pass, then
// twenty novel budget-48 networks, all on one cache, and every search of every
// sweep has the trace — history, verdict, refits, stop — of the same sweep on
// a restarted copy of the cache, whose memo starts empty. The memo must have
// answered fits along the way. After each sweep, every family the sweep reads
// gets from the scoped prime the pool a full prime gives it.
func TestSweepSequenceUnchangedByPriorMemo(t *testing.T) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	cache := autotune.NewCache()
	primed := 0
	sweep := func(name string, layers []autotune.NetworkLayer, opts autotune.NetworkOptions) {
		t.Helper()
		_, want, err := autotune.TuneNetworkTraces(laneArch, layers, autotune.Restarted(cache), opts)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := autotune.TuneNetworkTraces(laneArch, layers, cache, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d searches against the memo, %d on an empty one", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Space.Kind != want[i].Space.Kind || got[i].Space.Shape != want[i].Space.Shape ||
				!reflect.DeepEqual(got[i].Trace, want[i].Trace) {
				t.Errorf("%s: search %d (%v %v) has another trace against the memo: best %v vs %v, %d vs %d refits, stop %v vs %v",
					name, i, got[i].Space.Kind, got[i].Space.Shape, got[i].Best, want[i].Best,
					got[i].Refits, want[i].Refits, got[i].Stop, want[i].Stop)
			}
		}
		n, diff, err := autotune.ScopedPrimeDiff(laneArch, layers, cache, opts)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Errorf("%s: family %s: the scoped prime's pool differs from the full prime's", name, diff)
		}
		primed += n
	}

	for _, fx := range zooFixtures() {
		sweep(fx.name, fx.layers, zooOptions(fx, tune))
	}
	zooHits, zooMisses, zooBelow := autotune.PriorMemoCounts(cache)

	fresh := tune
	fresh.Budget = 48
	for i, layers := range novelNetworks(20) {
		sweep(fmt.Sprintf("novel-%d", i), layers, autotune.NetworkOptions{Tune: fresh, Winograd: true, Warm: true})
	}
	hits, misses, below := autotune.PriorMemoCounts(cache)
	t.Logf("prior memo: %d hits, %d misses, %d below the cap on the zoo pass; %d hits, %d misses, %d below the cap on the novel sweeps; %d primed families compared",
		zooHits, zooMisses, zooBelow, hits-zooHits, misses-zooMisses, below-zooBelow, primed)
	if hits == 0 {
		t.Error("the prior memo never answered a fit")
	}
	// A novel budget-48 search ranks behind the zoo's budget-400 sources, so
	// it leaves the capped families' rows, and their memo slots, where they
	// are: only the first sweep of a family that the zoo pass left without a
	// slot for its final rows may miss.
	if novel := misses - zooMisses; novel > 2 {
		t.Errorf("the novel sweeps refitted %d capped priors, want at most 2", novel)
	}
	if primed == 0 {
		t.Error("no sweep read a primed family: the pool check compared nothing")
	}
}

// A fresh low-budget search moves no family the zoo filled: on a zoo-filled
// cache, novel budget-48 searches and one deadline-truncated search arrive in
// several orders, and after every arrival each family that was at both caps
// on the zoo alone primes the same rows, costs and seeds — so the same rows
// digest reaches the prior memo — as before any arrival.
func TestPrimeIgnoresLowerBudgetArrivals(t *testing.T) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	zoo := autotune.NewCache()
	coldZooPass(t, tune, zoo)
	want := autotune.PrimedFamilies(zoo, laneArch, nil)
	full := make(map[autotune.PoolFamily]bool)
	for fam, f := range want {
		if f.Full {
			full[fam] = true
		}
	}
	if len(full) == 0 {
		t.Fatal("the zoo fills no family")
	}

	// The arrivals are tuned once, on a copy of the zoo cache: eight novel
	// networks at budget 48, then a ninth at the default budget under an
	// expired deadline, which persists its first searches at the
	// measurements they took.
	grown := autotune.Restarted(zoo)
	nets := novelNetworks(9)
	fresh := tune
	fresh.Budget = 48
	var arrivals []autotune.CacheEntry
	intoFull := 0
	arrive := func(ctx context.Context, layers []autotune.NetworkLayer, opts autotune.NetworkOptions) []autotune.LayerVerdict {
		t.Helper()
		verdicts, err := autotune.TuneNetworkContext(ctx, laneArch, layers, grown, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range autotune.Searches(laneArch, layers, opts) {
			if e, ok := grown.Entry(laneArch.Name, s.Kind, s.Shape); ok {
				arrivals = append(arrivals, e)
				if full[autotune.FamilyOf(s.Kind, s.Shape)] {
					intoFull++
				}
			}
		}
		return verdicts
	}
	for _, layers := range nets[:8] {
		arrive(context.Background(), layers, autotune.NetworkOptions{Tune: fresh, Winograd: true, Warm: true})
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	verdicts := arrive(expired, nets[8], autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true})
	if !verdicts[0].Partial {
		t.Fatal("the search under an expired deadline ran to completion")
	}
	if intoFull == 0 {
		t.Fatal("no arrival feeds a family the zoo filled: the check compares nothing")
	}

	rng := rand.New(rand.NewSource(1))
	orders := [][]autotune.CacheEntry{arrivals, slices.Clone(arrivals), slices.Clone(arrivals)}
	slices.Reverse(orders[1])
	rng.Shuffle(len(orders[2]), func(i, j int) { orders[2][i], orders[2][j] = orders[2][j], orders[2][i] })
	for o, order := range orders {
		cache := autotune.Restarted(zoo)
		for i, e := range order {
			if err := cache.PutEntries([]autotune.CacheEntry{e}); err != nil {
				t.Fatal(err)
			}
			got := autotune.PrimedFamilies(cache, laneArch, full)
			for fam := range full {
				if !reflect.DeepEqual(got[fam], want[fam]) {
					t.Fatalf("order %d, arrival %d (%s %+v, budget %d): full family %+v primes other rows or seeds",
						o, i, e.Kind, e.Shape, e.Budget, fam)
				}
			}
		}
	}
	t.Logf("%d arrivals, %d into %d full families, in %d orders", len(arrivals), intoFull, len(full), len(orders))
}

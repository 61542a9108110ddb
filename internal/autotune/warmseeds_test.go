package autotune_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/shapes"
)

// A warm search's seeds are a function of the cache's entry set: the entries
// of a cold zoo pass, joined into fresh caches by a Save/Load round trip and
// one by one in permuted orders beside a lower-budget duplicate the join
// rejects, rank the same seeds for a fixed set of zoo and novel spaces, with
// pruning and under NoPrune. Every seed is on its space's axes and
// measurable, the seeds are distinct and at most WarmSeedCount, and under
// NoPrune they are the snapped verdicts of least seconds, in that order.
func TestWarmSeedsAreAFunctionOfTheEntrySet(t *testing.T) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	zoo := autotune.NewCache()
	coldZooPass(t, tune, zoo)
	var saved bytes.Buffer
	if err := zoo.Save(&saved); err != nil {
		t.Fatal(err)
	}
	entries, err := autotune.DecodeEntries(saved.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// The duplicate re-runs an entry's first half: half its rows, at that
	// budget, with the best of them as its verdict.
	var dup autotune.CacheEntry
	for _, e := range entries {
		if e.Kind == autotune.Direct.String() && len(e.Rows) >= 8 {
			dup = e
			break
		}
	}
	dup.Rows = slices.Clone(dup.Rows[:len(dup.Rows)/2])
	dup.Budget = len(dup.Rows)
	dup.Seconds = math.Inf(1)
	for _, r := range dup.Rows {
		if r.OK && r.Seconds < dup.Seconds {
			dup.Config, dup.Seconds = r.Config, r.Seconds
		}
	}

	caches := []*autotune.Cache{autotune.NewCache()}
	if err := caches[0].Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	arrivals := append(slices.Clone(entries), dup)
	for order := 0; order < 4; order++ {
		switch order {
		case 0:
			slices.Reverse(arrivals)
		default:
			rng := rand.New(rand.NewSource(int64(order)))
			rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		}
		c := autotune.NewCache()
		for _, e := range arrivals {
			if err := c.PutEntries([]autotune.CacheEntry{e}); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := c.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), saved.Bytes()) {
			t.Fatalf("order %d: the join keeps other entries than the zoo's", order)
		}
		caches = append(caches, c)
	}

	// Every seventh zoo search and the first novel networks' layers, Direct
	// and Winograd.
	type search struct {
		kind  autotune.Kind
		shape shapes.ConvShape
	}
	var searches []search
	seen := make(map[search]bool)
	n := 0
	for _, fx := range zooFixtures() {
		for _, s := range autotune.Searches(laneArch, fx.layers, zooOptions(fx, tune)) {
			if k := (search{s.Kind, s.Shape}); !seen[k] {
				seen[k] = true
				if n++; n%7 == 0 {
					searches = append(searches, k)
				}
			}
		}
	}
	for _, net := range novelNetworks(t, 6) {
		for _, l := range net {
			searches = append(searches, search{autotune.Direct, l.Shape}, search{autotune.Winograd, l.Shape})
		}
	}
	zooSearches := make(map[autotune.Kind][]shapes.ConvShape)
	for s := range seen {
		zooSearches[s.kind] = append(zooSearches[s.kind], s.shape)
	}

	total := 0
	for _, s := range searches {
		sp, err := autotune.NewSpace(s.shape, laneArch, s.kind, 0, true)
		if err != nil {
			continue
		}
		measure := autotune.KindMeasurer(laneArch, s.shape, s.kind)
		for _, noPrune := range []bool{false, true} {
			want := autotune.WarmSeeds(zoo, sp, noPrune)
			for i, c := range caches {
				if got := autotune.WarmSeeds(c, sp, noPrune); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v, noPrune %v: cache %d seeds %v, the zoo %v", s.kind, s.shape, noPrune, i, got, want)
				}
			}
			if len(want) > autotune.WarmSeedCount {
				t.Errorf("%s %+v: %d seeds, the cap is %d", s.kind, s.shape, len(want), autotune.WarmSeedCount)
			}
			for i, cfg := range want {
				if snapped, ok := sp.Snap(cfg); !ok || snapped != cfg {
					t.Errorf("%s %+v: seed %v is not on the space's axes", s.kind, s.shape, cfg)
				}
				if _, ok := measure(cfg); !ok {
					t.Errorf("%s %+v: seed %v does not measure", s.kind, s.shape, cfg)
				}
				if slices.Contains(want[:i], cfg) {
					t.Errorf("%s %+v: seed %v twice", s.kind, s.shape, cfg)
				}
			}
			total += len(want)
			if !noPrune {
				continue
			}
			// Under NoPrune a seed's rank is the least seconds of the
			// verdicts that snap onto it.
			least := make(map[conv.Config]float64)
			for _, shape := range zooSearches[s.kind] {
				cfg, m, _ := zoo.Get(laneArch.Name, s.kind, shape)
				if cfg, ok := sp.Snap(cfg); ok {
					if _, ok := measure(cfg); ok {
						if old, held := least[cfg]; !held || m.Seconds < old {
							least[cfg] = m.Seconds
						}
					}
				}
			}
			if len(want) != min(len(least), autotune.WarmSeedCount) {
				t.Errorf("%s %+v: %d seeds from %d snapped verdicts", s.kind, s.shape, len(want), len(least))
			}
			for i, cfg := range want {
				if i > 0 && least[cfg] < least[want[i-1]] {
					t.Errorf("%s %+v: NoPrune seed %d (%v s) ranks after a slower one", s.kind, s.shape, i, least[cfg])
				}
			}
			if len(want) > 0 {
				last := least[want[len(want)-1]]
				for cfg, sec := range least {
					if sec < last && !slices.Contains(want, cfg) {
						t.Errorf("%s %+v: NoPrune leaves out %v at %v s, below its last seed's %v s", s.kind, s.shape, cfg, sec, last)
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no space ranks a seed: the check compares nothing")
	}
	t.Logf("%d searches, %d seeds, %d caches", len(searches), total, len(caches))
}

package autotune_test

import (
	"fmt"
	"math/rand"
	"reflect"
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
		opts := autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true}
		if fx.name == "mobilenetv1" {
			opts.Kinds = []autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}
		}
		sweep(fx.name, fx.layers, opts)
	}
	zooHits, zooMisses := autotune.PriorMemoCounts(cache)

	fresh := tune
	fresh.Budget = 48
	for i, layers := range novelNetworks(20) {
		sweep(fmt.Sprintf("novel-%d", i), layers, autotune.NetworkOptions{Tune: fresh, Winograd: true, Warm: true})
	}
	hits, misses := autotune.PriorMemoCounts(cache)
	t.Logf("prior memo: %d hits, %d misses on the zoo pass; %d hits, %d misses on the novel sweeps; %d primed families compared",
		zooHits, zooMisses, hits-zooHits, misses-zooMisses, primed)
	if hits == 0 {
		t.Error("the prior memo never answered a fit")
	}
	if primed == 0 {
		t.Error("no sweep read a primed family: the pool check compared nothing")
	}
}

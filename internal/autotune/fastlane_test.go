package autotune_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro"
	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/shapes"
)

// These tests live outside the package because the fixtures do: the zoo
// networks come from internal/models, which imports autotune.

var laneArch = memsim.V100

func laneOpts(budget int) autotune.Options {
	return autotune.Options{Budget: budget, BatchSize: 4, Walkers: 4, WalkSteps: 12, Seed: 3}
}

type fixture struct {
	name   string
	layers []autotune.NetworkLayer
}

// zooFixtures is the benchmark's six-network zoo.
func zooFixtures() []fixture {
	return []fixture{
		{"alexnet", models.AlexNet().NetworkLayers()},
		{"vgg19", models.VGG19().NetworkLayers()},
		{"resnet18", models.ResNet18().NetworkLayers()},
		{"squeezenet", models.SqueezeNet().NetworkLayers()},
		{"inceptionv3", models.InceptionV3().NetworkLayers()},
		{"mobilenetv1", models.MobileNetV1().NetworkLayers()},
	}
}

// strangerLayer shares its shape with no zoo layer: appended to a request it
// is the one uncovered search that sends the whole request down the sweep.
var strangerLayer = autotune.NetworkLayer{Name: "stranger", Repeat: 1, Shape: shapes.ConvShape{
	Batch: 1, Cin: 24, Cout: 40, Hin: 10, Win: 10, Hker: 5, Wker: 5, Strid: 1, Pad: 2}}

func copyCache(t *testing.T, c *autotune.Cache) *autotune.Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out := autotune.NewCache()
	if err := out.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return out
}

func wire(t *testing.T, verdicts []autotune.LayerVerdict) []byte {
	t.Helper()
	b, err := json.Marshal(repro.DescribeVerdicts(verdicts))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Equivalence of the cache-hit early return: after a cold tune, the replay
// is answered by CachedNetwork, and its verdicts equal — field for field —
// what the full sweep yields for the same layers over the same entries. The
// reference runs the sweep on a copy of the cache, forced past the probe by
// one extra layer the cache does not hold.
func TestCachedNetworkMatchesSweep(t *testing.T) {
	for _, f := range zooFixtures() {
		for _, warm := range []bool{false, true} {
			for _, resume := range []bool{false, true} {
				for _, kinds := range [][]autotune.Kind{nil, {autotune.FFT, autotune.ImplicitGEMM}} {
					name := fmt.Sprintf("%s/warm=%t/resume=%t/kinds=%v", f.name, warm, resume, kinds)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						opts := autotune.NetworkOptions{Tune: laneOpts(6), Workers: 2,
							Winograd: true, Kinds: kinds, Warm: warm, Resume: resume}
						cache := autotune.NewCache()
						cold, err := autotune.TuneNetwork(laneArch, f.layers, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if _, ok := autotune.CachedNetwork(laneArch, f.layers, autotune.NewCache(), opts); ok {
							t.Fatal("an empty cache answered the request")
						}
						fast, ok := autotune.CachedNetwork(laneArch, f.layers, cache, opts)
						if !ok {
							t.Fatal("the cache does not answer a network it has just tuned")
						}
						replay, err := autotune.TuneNetwork(laneArch, f.layers, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(replay, fast) {
							t.Error("TuneNetwork's replay differs from CachedNetwork's answer")
						}
						if !bytes.Equal(wire(t, replay), wire(t, fast)) {
							t.Error("two replays differ on the wire")
						}

						swept, err := autotune.TuneNetwork(laneArch,
							append(append([]autotune.NetworkLayer(nil), f.layers...), strangerLayer),
							copyCache(t, cache), opts)
						if err != nil {
							t.Fatal(err)
						}
						for i, want := range swept[:len(f.layers)] {
							if !reflect.DeepEqual(fast[i], want) {
								t.Errorf("layer %d: early return %+v, sweep %+v", i, fast[i], want)
							}
							c := cold[i]
							c.Shared = true // the cold run searched; a replay shares
							if !reflect.DeepEqual(fast[i], c) {
								t.Errorf("layer %d: replay %+v, cold tune %+v", i, fast[i], c)
							}
						}
					})
				}
			}
		}
	}
}

// A resumable entry below the requested budget is not covered: the probe
// declines it exactly when the sweep would re-enter the search.
func TestCachedNetworkDeclinesResumableEntry(t *testing.T) {
	layers := models.AlexNet().NetworkLayers()[:2]
	cache := autotune.NewCache()
	low := autotune.NetworkOptions{Tune: laneOpts(6), Resume: true}
	if _, err := autotune.TuneNetwork(laneArch, layers, cache, low); err != nil {
		t.Fatal(err)
	}
	high := low
	high.Tune.Budget = 12
	if _, ok := autotune.CachedNetwork(laneArch, layers, cache, high); ok {
		t.Error("Resume on: entries persisted at budget 6 answered a budget-12 request")
	}
	if _, remaining := cache.Covered(laneArch.Name, autotune.Direct, layers[0].Shape, 12, true); remaining != 6 {
		t.Errorf("Covered reports %d measurements left to spend, want 12-6", remaining)
	}
	high.Resume = false
	if _, ok := autotune.CachedNetwork(laneArch, layers, cache, high); !ok {
		t.Error("Resume off: a cached entry is returned as-is at any budget")
	}
}

// hitAllocsCeiling pins what an all-hit ResNet-18 sweep may allocate: the
// dedup map and its keys, one task per distinct search, a candidate list per
// layer and the verdict list — 73 when this was written. Before the probe
// the same call cost 4 572 allocations against a three-network cache,
// because Warm rebuilt the whole transfer pool first.
const hitAllocsCeiling = 100

// The cost of a hit depends on the request, not on the cache: an all-hit
// ResNet-18 sweep with Warm on allocates the same whether the cache holds
// ResNet-18 alone or two more networks beside it.
func TestCachedSweepCostIndependentOfCacheSize(t *testing.T) {
	resnet := models.ResNet18().NetworkLayers()
	opts := autotune.NetworkOptions{Tune: laneOpts(6), Workers: 2, Winograd: true, Warm: true}
	cache := autotune.NewCache()
	hit := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := autotune.TuneNetwork(laneArch, resnet, cache, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := autotune.TuneNetwork(laneArch, resnet, cache, opts); err != nil {
		t.Fatal(err)
	}
	alone := hit()
	for _, m := range []models.Model{models.VGG19(), models.AlexNet()} {
		if _, err := autotune.TuneNetwork(laneArch, m.NetworkLayers(), cache, opts); err != nil {
			t.Fatal(err)
		}
	}
	crowded := hit()
	if alone != crowded {
		t.Errorf("all-hit ResNet-18 sweep: %.0f allocs against its own entries, %.0f with VGG-19 and AlexNet beside them", alone, crowded)
	}
	if crowded > hitAllocsCeiling {
		t.Errorf("all-hit ResNet-18 sweep: %.0f allocs, ceiling %d", crowded, hitAllocsCeiling)
	}
}

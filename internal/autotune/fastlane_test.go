package autotune_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/autotune"
	"repro/internal/conv"
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
	// deadWinograd: the last layer's Winograd candidate is offered, but its
	// measurer is dead, so that search fails on every sweep.
	deadWinograd bool
}

// zooFixtures is the benchmark's six-network zoo.
func zooFixtures() []fixture {
	return []fixture{
		{name: "alexnet", layers: models.AlexNet().NetworkLayers()},
		{name: "vgg19", layers: models.VGG19().NetworkLayers()},
		{name: "resnet18", layers: models.ResNet18().NetworkLayers()},
		{name: "squeezenet", layers: models.SqueezeNet().NetworkLayers()},
		{name: "inceptionv3", layers: models.InceptionV3().NetworkLayers()},
		{name: "mobilenetv1", layers: models.MobileNetV1().NetworkLayers()},
	}
}

// strangerLayer shares its shape with no zoo layer: appended to a request it
// is the one uncovered search that sends the whole request down the sweep.
var strangerLayer = autotune.NetworkLayer{Name: "stranger", Repeat: 1, Shape: shapes.ConvShape{
	Batch: 1, Cin: 24, Cout: 40, Hin: 10, Win: 10, Hker: 5, Wker: 5, Strid: 1, Pad: 2}}

// deadWinogradLayer is a 3×3 unit-stride shape no zoo layer has.
var deadWinogradLayer = autotune.NetworkLayer{Name: "dead-winograd", Repeat: 1, Shape: shapes.ConvShape{
	Batch: 1, Cin: 24, Cout: 40, Hin: 10, Win: 10, Hker: 3, Wker: 3, Strid: 1, Pad: 1}}

// killWinograd fails every Winograd measurement of deadWinogradLayer.
func killWinograd(k autotune.Kind, s shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
	if k == autotune.Winograd && s == deadWinogradLayer.Shape {
		return func(conv.Config) (autotune.Measurement, bool, error) {
			return autotune.Measurement{}, false, errors.New("backend down")
		}
	}
	return autotune.LiftMeasurer(m)
}

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
// one extra layer the cache does not hold. A candidate search that fails
// leaves its key uncovered — the probe declines, every sweep retries it —
// and the layer keeps its Direct verdict, first tune and replay alike. The
// probe's trajectory is a prefix of the plan's searches: the covered ones,
// each with a verdict the cache holds, and on a miss the dead Winograd
// search, which the cache still misses.
func TestCachedNetworkMatchesSweep(t *testing.T) {
	fixtures := append(zooFixtures(), fixture{name: "alexnet+dead-winograd",
		layers: append(models.AlexNet().NetworkLayers(), deadWinogradLayer), deadWinograd: true})
	for _, f := range fixtures {
		for _, warm := range []bool{false, true} {
			for _, resume := range []bool{false, true} {
				for _, kinds := range [][]autotune.Kind{nil, {autotune.FFT, autotune.ImplicitGEMM}} {
					name := fmt.Sprintf("%s/warm=%t/resume=%t/kinds=%v", f.name, warm, resume, kinds)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						opts := autotune.NetworkOptions{Tune: laneOpts(6), Workers: 2,
							Winograd: true, Kinds: kinds, Warm: warm, Resume: resume}
						if f.deadWinograd {
							opts.WrapMeasurer = killWinograd
						}
						cache := autotune.NewCache()
						cold, err := autotune.TuneNetwork(laneArch, f.layers, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if _, _, ok := autotune.CachedNetwork(laneArch, f.layers, autotune.NewCache(), opts); ok {
							t.Fatal("an empty cache answered the request")
						}
						fast, probe, ok := autotune.CachedNetwork(laneArch, f.layers, cache, opts)
						if ok == f.deadWinograd {
							t.Fatalf("CachedNetwork answered: %t, want %t (only a failed search is left uncovered)", ok, !f.deadWinograd)
						}
						trajectory := probe.Searches()
						covered := trajectory
						if !ok {
							missed := &trajectory[len(trajectory)-1]
							if missed.Kind != autotune.Winograd || missed.Shape != deadWinogradLayer.Shape {
								t.Errorf("the probe missed %v, want the dead Winograd search", missed.Search)
							}
							if !cache.Misses(laneArch.Name, &missed.Search, opts.Tune.Budget, opts.Resume) {
								t.Errorf("the cache covers the search the probe missed, %v", missed.Search)
							}
							covered = trajectory[:len(trajectory)-1]
						}
						searches := make([]autotune.Search, len(trajectory))
						for i, q := range trajectory {
							searches[i] = q.Search
						}
						for _, q := range covered {
							if !cache.Holds(laneArch.Name, &q, opts.Tune.Budget, opts.Resume) {
								t.Errorf("covered search %v read %+v %+v, which the cache does not hold", q.Search, q.Config, q.M)
							}
						}
						if want := autotune.Searches(laneArch, f.layers, opts); !reflect.DeepEqual(searches, want[:len(searches)]) {
							t.Errorf("CachedNetwork probed %v, the plan searches %v", searches, want)
						} else if ok && len(searches) != len(want) {
							t.Errorf("CachedNetwork answered after probing %d of the plan's %d searches", len(searches), len(want))
						}
						replay, err := autotune.TuneNetwork(laneArch, f.layers, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if f.deadWinograd {
							if last := cold[len(cold)-1]; last.Kind == autotune.Winograd {
								t.Error("a layer with a dead Winograd backend tuned to winograd")
							}
							fast = replay
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

// Searches is the sweep's own plan: for every zoo network, candidate-kind set
// and schedule, the searches it lists are — in first-come layer order —
// exactly the ones a sweep on a fresh cache ran, and the cache afterwards
// holds one entry per listed search that did not error and nothing else.
func TestSearchesMatchesSweep(t *testing.T) {
	for _, f := range zooFixtures() {
		for _, kinds := range [][]autotune.Kind{nil, {autotune.Winograd}, {autotune.FFT, autotune.ImplicitGEMM}} {
			for _, warm := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/kinds=%v/warm=%t", f.name, kinds, warm), func(t *testing.T) {
					t.Parallel()
					var mu sync.Mutex
					ran := make(map[autotune.Search]int)
					opts := autotune.NetworkOptions{Tune: laneOpts(6), Workers: 2, Kinds: kinds, Warm: warm,
						WrapMeasurer: func(k autotune.Kind, s shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
							mu.Lock()
							ran[autotune.Search{Kind: k, Shape: s}]++
							mu.Unlock()
							return autotune.LiftMeasurer(m)
						}}
					searches := autotune.Searches(laneArch, f.layers, opts)

					var want []autotune.Search
					seen := make(map[autotune.Search]bool)
					for _, l := range f.layers {
						for _, k := range autotune.CandidateKinds(l.Shape, false, kinds) {
							if q := (autotune.Search{Kind: k, Shape: l.Shape}); !seen[q] {
								seen[q] = true
								want = append(want, q)
							}
						}
					}
					if !reflect.DeepEqual(searches, want) {
						t.Fatalf("Searches = %v, want the first-come candidate order %v", searches, want)
					}

					cache := autotune.NewCache()
					if _, err := autotune.TuneNetwork(laneArch, f.layers, cache, opts); err != nil {
						t.Fatal(err)
					}
					wrote := 0
					for _, q := range searches {
						if ran[q] != 1 {
							t.Errorf("%v %v: the sweep ran it %d times, want once", q.Kind, q.Shape, ran[q])
						}
						if _, ok := cache.Entry(laneArch.Name, q.Kind, q.Shape); ok {
							wrote++
						} else if q.Kind == autotune.Direct {
							t.Errorf("direct %v: no entry after a sweep that succeeded", q.Shape)
						}
					}
					if len(ran) != len(searches) || cache.Len() != wrote {
						t.Errorf("the sweep ran %d searches and wrote %d keys; Searches lists %d, %d of them cached",
							len(ran), cache.Len(), len(searches), wrote)
					}
				})
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
	if _, _, ok := autotune.CachedNetwork(laneArch, layers, cache, high); ok {
		t.Error("Resume on: entries persisted at budget 6 answered a budget-12 request")
	}
	if _, remaining := cache.Covered(laneArch.Name, autotune.Direct, layers[0].Shape, 12, true); remaining != 6 {
		t.Errorf("Covered reports %d measurements left to spend, want 12-6", remaining)
	}
	high.Resume = false
	if _, _, ok := autotune.CachedNetwork(laneArch, layers, cache, high); !ok {
		t.Error("Resume off: a cached entry is returned as-is at any budget")
	}
}

// hitAllocsCeiling pins what an all-hit ResNet-18 sweep may allocate: the
// dedup map and its keys, one task per distinct search, a candidate list per
// layer and the verdict list — 73 when this was written. Before the probe
// the same call cost 4 572 allocations against a three-network cache,
// because Warm rebuilt the whole transfer pool, since removed, first.
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

// A Winograd lead whose search fails leaves its Direct follower no waiver:
// the follower reads no lead verdict and runs the search it runs where
// Winograd is not asked for. (At seed 0 a follower that read the failed
// search's zero verdict would be waived and stop on the gap after 33
// measurements; alone it is certified after 81.)
func TestFailedLeadGivesNoWaiver(t *testing.T) {
	layers := []autotune.NetworkLayer{deadWinogradLayer}
	direct := func(opts autotune.NetworkOptions) autotune.SearchTrace {
		t.Helper()
		opts.Tune = autotune.DefaultOptions()
		opts.Tune.Seed = 0
		_, searches, err := autotune.TuneNetworkTraces(laneArch, layers, autotune.NewCache(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(searches) != 1 || searches[0].Space.Kind != autotune.Direct {
			t.Fatalf("%d searches ran, want the Direct one alone", len(searches))
		}
		return searches[0]
	}
	led := direct(autotune.NetworkOptions{Winograd: true, WrapMeasurer: killWinograd})
	alone := direct(autotune.NetworkOptions{})
	if led.Waived || led.Stop != alone.Stop || led.Measurements != alone.Measurements ||
		led.BestM != alone.BestM || led.GapRef != alone.GapRef {
		t.Errorf("after a failed Winograd lead Direct stopped on %v after %d against %v (waived %t), alone on %v after %d against %v",
			led.Stop, led.Measurements, led.GapRef, led.Waived, alone.Stop, alone.Measurements, alone.GapRef)
	}
}

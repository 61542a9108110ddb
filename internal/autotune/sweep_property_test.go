package autotune_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/shapes"
)

// sweepDeadline bounds one sweep of the sweep properties: the searches of a
// sweep wait on each other (a follower on its lead's bookings), so a wait
// cycle shows as a sweep that never returns.
const sweepDeadline = 2 * time.Minute

// sweepRequest is one seeded request of the sweep property.
type sweepRequest struct {
	layers []autotune.NetworkLayer
	opts   autotune.NetworkOptions
}

// drawSweepRequest draws 1–12 layers from deck, each repeating an earlier
// layer's shape one time in four; a random subset of the kinds beside
// Direct; warm-starting on or off; an engine seed of 0–7, a Patience of 30
// or 120 and a budget of 16, 48 or 160, so the budget binds about half the
// time and the gap stop fires early on the short Patience. One request in
// four also carries deadWinogradLayer, whose Winograd lead fails.
func drawSweepRequest(seed int64, deck []shapes.ConvShape) sweepRequest {
	rng := rand.New(rand.NewSource(seed))
	var layers []autotune.NetworkLayer
	for i := range 1 + rng.Intn(12) {
		s := deck[rng.Intn(len(deck))]
		if i > 0 && rng.Intn(4) == 0 {
			s = layers[rng.Intn(i)].Shape
		}
		layers = append(layers, autotune.NetworkLayer{Name: fmt.Sprintf("l%d", i), Shape: s, Repeat: 1 + rng.Intn(3)})
	}
	tune := autotune.DefaultOptions()
	tune.Seed = rng.Int63n(8)
	tune.Patience = []int{30, 120}[rng.Intn(2)]
	tune.Budget = []int{16, 48, 160}[rng.Intn(3)]
	opts := autotune.NetworkOptions{Tune: tune, Warm: rng.Intn(2) == 0}
	for _, k := range []autotune.Kind{autotune.Winograd, autotune.FFT, autotune.ImplicitGEMM} {
		if rng.Intn(2) == 0 {
			opts.Kinds = append(opts.Kinds, k)
		}
	}
	if rng.Intn(4) == 0 {
		layers = append(layers, deadWinogradLayer)
		opts.WrapMeasurer = killWinograd
	}
	return sweepRequest{layers, opts}
}

// sweepOutcome is everything a sweep decides: its verdicts, the searches it
// ran and the bytes its cache saves.
type sweepOutcome struct {
	verdicts []autotune.LayerVerdict
	searches []autotune.SearchTrace
	saved    []byte
}

// runSweep runs req on a fresh cache at the given layer and measurement
// workers, and fails t when the sweep errs or has not returned within
// sweepDeadline.
func runSweep(t *testing.T, ctx context.Context, req sweepRequest, workers, tuneWorkers int) sweepOutcome {
	t.Helper()
	opts := req.opts
	opts.Workers, opts.Tune.Workers = workers, tuneWorkers
	cache := autotune.NewCache()
	var out sweepOutcome
	done := make(chan error, 1)
	go func() {
		var err error
		out.verdicts, out.searches, err = autotune.TuneNetworkTracesContext(ctx, laneArch, req.layers, cache, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("workers=%d/%d: %v", workers, tuneWorkers, err)
		}
	case <-time.After(sweepDeadline):
		t.Fatalf("workers=%d/%d: the sweep did not return within %v", workers, tuneWorkers, sweepDeadline)
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out.saved = buf.Bytes()
	return out
}

// sweepDiff names the first thing in which got differs from want, or is ""
// when the two sweeps decided the same.
func sweepDiff(got, want sweepOutcome) string {
	if !reflect.DeepEqual(got.verdicts, want.verdicts) {
		return fmt.Sprintf("verdicts %+v, want %+v", got.verdicts, want.verdicts)
	}
	if len(got.searches) != len(want.searches) {
		return fmt.Sprintf("%d searches, want %d", len(got.searches), len(want.searches))
	}
	for i, g := range got.searches {
		w := want.searches[i]
		if g.Space.Kind != w.Space.Kind || g.Space.Shape != w.Space.Shape || g.Lead != w.Lead {
			return fmt.Sprintf("search %d is %s %v led at %v, want %s %v led at %v",
				i, g.Space.Kind, g.Space.Shape, g.Lead, w.Space.Kind, w.Space.Shape, w.Lead)
		}
		if !reflect.DeepEqual(g.Trace, w.Trace) {
			return fmt.Sprintf("search %d (%s %v): stopped on %v after %d against %v (waived %t), want %v after %d against %v (waived %t), or its history differs",
				i, g.Space.Kind, g.Space.Shape, g.Stop, g.Measurements, g.GapRef, g.Waived,
				w.Stop, w.Measurements, w.GapRef, w.Waived)
		}
	}
	if !bytes.Equal(got.saved, want.saved) {
		return "the saved caches differ"
	}
	return ""
}

// TestSweepIsAPureFunctionOfItsRequest: a sweep is a function of its
// request, not of its schedule. Seeded requests (drawSweepRequest) run at
// Workers 1, 2, 4 and 8 × Tune.Workers 1, 2 and 4, and every run must
// return within sweepDeadline with the verdicts, the searches — stop, gap
// reference, waiver, measurements, history, the whole trace — and the saved
// cache bytes of the run at one worker of each. Each seed is a subtest
// (-run 'TestSweepIsAPureFunctionOfItsRequest/seed=3'); a seed that fails
// becomes a named regression test beside this one.
func TestSweepIsAPureFunctionOfItsRequest(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	deck := zooAndNovelDeck()
	for seed := range int64(seeds) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			req := drawSweepRequest(seed, deck)
			want := runSweep(t, context.Background(), req, 1, 1)
			for _, workers := range []int{1, 2, 4, 8} {
				for _, tuneWorkers := range []int{1, 2, 4} {
					if workers == 1 && tuneWorkers == 1 {
						continue
					}
					got := runSweep(t, context.Background(), req, workers, tuneWorkers)
					if d := sweepDiff(got, want); d != "" {
						t.Errorf("%d layers, kinds %v, warm %t, budget %d, at workers=%d/%d: %s",
							len(req.layers), req.opts.Kinds, req.opts.Warm, req.opts.Tune.Budget, workers, tuneWorkers, d)
					}
				}
			}
			t.Logf("%d layers, kinds %v, warm %t, budget %d, patience %d: %d searches",
				len(req.layers), req.opts.Kinds, req.opts.Warm, req.opts.Tune.Budget, req.opts.Tune.Patience, len(want.searches))
		})
	}
}

// TestSweepLeavesNoGoroutine: a sweep cut short by its context, one whose
// Winograd lead dies (killWinograd) with followers waiting on it, and both at
// once return within sweepDeadline and leave no goroutine behind.
func TestSweepLeavesNoGoroutine(t *testing.T) {
	layers := append(zooFixtures()[2].layers[:4:4], deadWinogradLayer)
	for _, c := range []struct {
		name         string
		cancelAfter  int64 // measurements before the context is cancelled; 0 never, -1 before the sweep
		deadWinograd bool
	}{
		{"expired", -1, false},
		{"cancelled", 200, false},
		{"dead lead", 0, true},
		{"cancelled, dead lead", 200, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tune := autotune.DefaultOptions()
			var measured atomic.Int64
			tune.OnEvent = func(e autotune.Event) {
				if e == autotune.EventMeasure && measured.Add(1) == c.cancelAfter {
					cancel()
				}
			}
			if c.cancelAfter < 0 {
				cancel()
			}
			req := sweepRequest{layers, autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true}}
			if c.deadWinograd {
				req.opts.WrapMeasurer = killWinograd
			}
			out := runSweep(t, ctx, req, 4, 2)
			if len(out.verdicts) != len(layers) {
				t.Fatalf("%d verdicts for %d layers", len(out.verdicts), len(layers))
			}
			n := runtime.NumGoroutine()
			for settle := time.Now(); n > start && time.Since(settle) < 2*time.Second; n = runtime.NumGoroutine() {
				time.Sleep(10 * time.Millisecond)
			}
			if n > start {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the sweep, %d before:\n%s", n, start, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestSweepPatienceFollowsTheFloor: a sweep search waits its own Patience,
// recomputed here from its space's minimum tight floor (SweepPatience). In
// a cold zoo pass at seeds 0 and 1, every search that stopped on Patience,
// but for a Direct-led follower trailing its lead (which stops after
// 2·BatchSize flat measurements), stopped at the first between-batch check
// at least P measurements after its last improvement: P ≤ f < P + BatchSize,
// f = Measurements − ConvergedAt. The Patience is a function of the search
// key: each (kind, shape) a pass searched gets the same P from the space
// every zoo network that holds it builds.
func TestSweepPatienceFollowsTheFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two cold zoo passes")
	}
	tune := autotune.DefaultOptions()
	patience := make(map[autotune.Search]int)
	checked, scaled := 0, 0
	for _, seed := range []int64{0, 1} {
		tune.Seed = seed
		_, searches := coldZooPass(t, tune, autotune.NewCache())
		for _, s := range searches {
			sp := s.Space
			p := autotune.SweepPatience(sp)
			patience[groupsKey(sp.Kind, sp.Shape)] = p
			trailing := s.Lead != 0 && s.LeadKind == autotune.Direct && s.Lead < s.BestM.Seconds
			if s.Stop != autotune.StopPatience || trailing {
				continue
			}
			checked++
			if p < tune.Patience {
				scaled++
			}
			if f := s.Measurements - s.ConvergedAt; f < p || f >= p+tune.BatchSize {
				t.Errorf("seed %d: %v %s stopped on Patience %d measurements after its last improvement; its minimum floor %v sets Patience %d",
					seed, sp.Shape, sp.Kind, f, sp.MinFloor(), p)
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no Patience stop waited less than the full Patience: the check compares nothing the floor scaled")
	}
	held := 0
	for _, fx := range zooFixtures() {
		opts := zooOptions(fx, tune)
		for _, l := range fx.layers {
			for _, k := range autotune.CandidateKinds(l.Shape, opts.Winograd, opts.Kinds) {
				want, searched := patience[groupsKey(k, l.Shape)]
				if !searched {
					continue
				}
				sp, err := autotune.NewSpace(l.Shape, laneArch, k, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				held++
				if p := autotune.SweepPatience(sp); p != want {
					t.Errorf("%s %s %s: Patience %d, %d where the pass searched it", fx.name, l.Name, k, p, want)
				}
			}
		}
	}
	t.Logf("%d Patience stops checked, %d below the full Patience; %d searches, %d zoo layers' kinds", checked, scaled, len(patience), held)
}

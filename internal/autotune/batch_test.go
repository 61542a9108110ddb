package autotune

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// The loop's batch rule (pickBatch): each batch the loop books holds at most
// one configuration per tile, apart from the incumbent's own tile while the
// incumbent improved within the last BatchSize measurements, and the batches
// are the same at 1 and 8 workers. The loop's batches are read through the
// booking hook: the Section-5 seed batch and the initial random batch book
// first (the test skips both), then each loop batch books once.
func TestLoopBatchOneConfigPerTile(t *testing.T) {
	// ResNet-18's strided stage-2 entry, AlexNet's conv3 and a ResNet stage-1
	// layer: searches that go stale rather than certify early.
	strided := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 2, Pad: 1}
	conv3 := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 13, Win: 13, Cout: 384, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	stage1 := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 56, Win: 56, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	for _, tc := range []struct {
		name    string
		shape   shapes.ConvShape
		kind    Kind
		noPrune bool
		seed    int64
	}{
		{"direct", strided, Direct, false, 1},
		{"winograd", conv3, Winograd, false, 3},
		{"direct-noprune", stage1, Direct, true, 3},
		{"winograd-noprune", engineBenchLayer(), Winograd, true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpace(tc.shape, arch, tc.kind, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) (*Trace, []int) {
				opts := DefaultOptions()
				opts.Budget, opts.Seed, opts.NoPrune, opts.Workers = 240, tc.seed, tc.noPrune, workers
				var bookings []int
				opts.booked = func(n int, _ float64) { bookings = append(bookings, n) }
				tr, err := Tune(sp, KindMeasurer(arch, tc.shape, tc.kind), opts)
				if err != nil {
					t.Fatal(err)
				}
				return tr, bookings
			}
			tr, bookings := run(1)
			tr8, bookings8 := run(8)
			if !reflect.DeepEqual(bookings, bookings8) || !reflect.DeepEqual(tr.History, tr8.History) {
				t.Fatalf("batches differ at 1 and 8 workers: %v vs %v", bookings, bookings8)
			}
			if len(bookings) < 4 {
				t.Fatalf("only %d bookings: the loop never ran", len(bookings))
			}
			batchSize := DefaultOptions().BatchSize
			spread, refined := 0, 0
			for b := 2; b < len(bookings); b++ {
				from, to := bookings[b-1], bookings[b]
				best, sigAt, found := incumbentAt(tr.History[:from])
				refine := found && from-sigAt < batchSize
				tiles := make(map[tileKey]int)
				for _, h := range tr.History[from:to] {
					tiles[tileOf(h.Config)]++
				}
				for tile, n := range tiles {
					if n > 1 && !(refine && tile == tileOf(best)) {
						t.Fatalf("batch %d (measurements %d–%d) holds %d configurations of tile %v", b, from+1, to, n, tile)
					}
					if n > 1 {
						refined++
					}
				}
				if len(tiles) == to-from && to-from == batchSize {
					spread++
				}
			}
			if spread == 0 || refined == 0 {
				t.Fatalf("%d batches over %d distinct tiles and %d refining the incumbent's: the rule is not exercised", spread, batchSize, refined)
			}
		})
	}
}

// incumbentAt replays a history prefix as record.add books it (MinDelta 0):
// the incumbent, the measurement count at its last improvement, and whether
// any measurement was valid.
func incumbentAt(hist []MeasuredConfig) (best conv.Config, sigAt int, found bool) {
	var bt float64
	for i, h := range hist {
		if !h.OK || (found && !incumbentBefore(h.M.Seconds, h.Config, bt, best)) {
			continue
		}
		if !found || h.M.Seconds < bt {
			sigAt = i + 1
		}
		best, bt, found = h.Config, h.M.Seconds, true
	}
	return best, sigAt, found
}

// pickBatch on random rankings: the batch is the rank-order prefix of the
// configurations whose tile is new to it — or the incumbent's own tile under
// refine — cut at k.
func TestPickBatchOnePerTile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	taken := make(map[tileKey]bool)
	for trial := 0; trial < 500; trial++ {
		var ranked []scored
		for i := rng.Intn(40); i > 0; i-- {
			c := conv.Config{TileX: 1 + rng.Intn(3), TileY: 1 + rng.Intn(2), TileZ: 1, ThreadsX: 1 + rng.Intn(4), WinogradE: 2 * rng.Intn(2)}
			ranked = append(ranked, scored{c, float64(i)})
		}
		k := 1 + rng.Intn(8)
		own := tileOf(conv.Config{TileX: 1 + rng.Intn(3), TileY: 1, TileZ: 1})
		refine := rng.Intn(2) == 0
		got := pickBatch(nil, ranked, k, own, refine, taken)
		var want []conv.Config
		seen := make(map[tileKey]bool)
		for _, s := range ranked {
			tile := tileOf(s.cfg)
			if len(want) < k && (!seen[tile] || refine && tile == own) {
				want = append(want, s.cfg)
			}
			seen[tile] = true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (k %d, own %v, refine %v): picked %v, want %v", trial, k, own, refine, got, want)
		}
	}
}

package autotune

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
)

// The engine reads the cost model three ways — Predict on one vector,
// PredictBatch on a matrix, and the per-iteration memo in front of both —
// and a search's trace depends on all three returning the same bits for the
// same configuration, before and after a refit.
func TestPredictPathsAgree(t *testing.T) {
	sp, err := NewSpace(engineBenchLayer(), memsim.V100, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	x, y := benchRows(200, 7)
	first := TrainGBT(DefaultGBTConfig(), x[:120], y[:120])
	second := TrainGBT(DefaultGBTConfig(), x[:120], y[:120])
	second.Update(x, y, 8)

	rng := rand.New(rand.NewSource(3))
	var cfgs []conv.Config
	var feats [][]float64
	for i := 0; i < 150; i++ {
		c := sp.Sample(rng)
		cfgs = append(cfgs, c)
		feats = append(feats, sp.Features(c))
	}

	view := predictor{sp: sp, memo: make(map[conv.Config]float64)}
	for _, m := range []*GBTModel{first, second} {
		view.refit(m)
		batch := m.PredictBatch(feats, nil)
		// Walk the first hundred twice (a miss, then a hit); the rest reach
		// the ranking unpredicted and go through its batched path.
		for pass := 0; pass < 2; pass++ {
			for i, c := range cfgs[:100] {
				want := m.Predict(feats[i])
				if got := view.predict(c); got != want || batch[i] != want {
					t.Fatalf("pass %d config %d: memo %v batch %v Predict %v", pass, i, got, batch[i], want)
				}
			}
		}
		pool := make(map[conv.Config]bool)
		want := make(map[conv.Config]float64)
		for i, c := range cfgs {
			pool[c] = true
			want[c] = batch[i]
		}
		ranked := view.rank(pool, nil)
		if !slices.IsSortedFunc(ranked, compareScored) {
			t.Fatal("rank is not in scoredBefore order")
		}
		if len(ranked) != len(pool) {
			t.Fatalf("ranked %d of %d pool members", len(ranked), len(pool))
		}
		for _, s := range ranked {
			if s.cost != want[s.cfg] {
				t.Fatalf("rank scored %v at %v, Predict says %v", s.cfg, s.cost, want[s.cfg])
			}
		}
	}
}

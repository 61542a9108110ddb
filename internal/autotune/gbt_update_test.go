package autotune

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// synthRows builds a deterministic synthetic regression set with mixed
// continuous and quantized features — quantized columns produce the massed
// value ties the histogram trainer must handle.
func synthRows(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64()*4 - 2
		b := float64(rng.Intn(5))
		c := rng.Float64()
		d := float64(rng.Intn(2))
		x[i] = []float64{a, b, c, d}
		y[i] = a*a + 0.7*b - 1.3*c*d + 0.1*rng.NormFloat64()
	}
	return x, y
}

// The headline warm-start contract: fitting R1 rounds and updating with R2
// more on the same dataset is bit-identical to a single full retrain of
// R1+R2 rounds — the split point does not change the model.
func TestGBTUpdateEqualsFullRetrain(t *testing.T) {
	x, y := synthRows(240, 17)
	for _, split := range []struct{ first, rest int }{{40, 20}, {1, 59}, {59, 1}, {30, 0}} {
		fullCfg := DefaultGBTConfig()
		fullCfg.Trees = split.first + split.rest
		full := TrainGBT(fullCfg, x, y)

		incCfg := DefaultGBTConfig()
		incCfg.Trees = split.first
		inc := TrainGBT(incCfg, x, y)
		inc.Update(x, y, split.rest)

		if got, want := inc.NumTrees(), full.NumTrees(); got != want {
			t.Fatalf("split %v: %d trees, want %d", split, got, want)
		}
		probe := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			v := []float64{probe.Float64()*4 - 2, float64(probe.Intn(5)), probe.Float64(), float64(probe.Intn(2))}
			if a, b := inc.Predict(v), full.Predict(v); a != b {
				t.Fatalf("split %v: Predict diverges: %v vs %v at %v", split, a, b, v)
			}
		}
	}
}

// Update on a grown dataset keeps the old trees and keeps learning: the
// warm-started model must fit the full set far better than the stale model
// it grew from, and at least as well as base-rate prediction.
func TestGBTUpdateLearnsGrownDataset(t *testing.T) {
	xAll, yAll := synthRows(600, 3)
	m := TrainGBT(DefaultGBTConfig(), xAll[:100], yAll[:100])
	stale := m.RMSE(xAll, yAll)
	for n := 200; n <= 600; n += 100 {
		m.Update(xAll[:n], yAll[:n], 8)
		if got := m.NumRows(); got != n {
			t.Fatalf("NumRows=%d after ingesting %d rows", got, n)
		}
	}
	if got := m.NumTrees(); got != 60+5*8 {
		t.Fatalf("forest has %d trees, want %d", got, 60+5*8)
	}
	warm := m.RMSE(xAll, yAll)
	if math.IsNaN(warm) || warm >= stale {
		t.Errorf("warm-started RMSE %v did not improve on stale %v", warm, stale)
	}
	// And it must remain a usable model outright.
	if warm > 0.8 {
		t.Errorf("warm-started RMSE %v too high", warm)
	}
}

// Update panics when the dataset does not extend the trained rows.
func TestGBTUpdateRejectsShrunkDataset(t *testing.T) {
	x, y := synthRows(50, 9)
	m := TrainGBT(DefaultGBTConfig(), x, y)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shrunk Update dataset")
		}
	}()
	m.Update(x[:10], y[:10], 4)
}

// The histogram trainer must behave identically whether ties abound or
// not; a constant feature must never be chosen as a split.
func TestGBTConstantFeatureIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64()
		x = append(x, []float64{1.5, a}) // feature 0 constant
		y = append(y, 3*a)
	}
	m := TrainGBT(DefaultGBTConfig(), x, y)
	for _, imp := range m.FeatureImportance() {
		if imp.Feature == FeatureNames[0] {
			t.Errorf("model split on a constant feature: %+v", imp)
		}
	}
	if rmse := m.RMSE(x, y); rmse > 0.05 {
		t.Errorf("RMSE %v too high on a linear single-feature target", rmse)
	}
}

// The histogram trainer against its reference: over random datasets mixing
// row counts, widths, column cardinalities around the threshold count and
// continuous columns, TrainGBT and the sort-per-node legacyTrainGBT predict
// every training row bit for bit. Only the order in which the gain's prefix
// sums are added differs between the two, so a split could flip only on two
// candidates whose gains sit within rounding of each other.
func TestTrainGBTMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	deep := GBTConfig{Trees: 20, MaxDepth: 6, MinSamples: 2, LearningRate: 0.1, Thresholds: 3, UpdateTrees: 8}
	levels := []int{1, 2, 3, 5, 16, 17, 40, 0} // 0: continuous
	for ds := 0; ds < 300; ds++ {
		// Rows are log-uniform over 1–400: the small sets hold the edge cases
		// (a root below MinSamples, one-row leaves), and they are cheap.
		n, nf := int(math.Exp(rng.Float64()*math.Log(401))), 1+rng.Intn(10)
		card := make([]int, nf)
		for f := range card {
			card[f] = levels[rng.Intn(len(levels))]
		}
		x, y := make([][]float64, n), make([]float64, n)
		for i := range x {
			x[i] = make([]float64, nf)
			for f, l := range card {
				if l == 0 {
					x[i][f] = rng.Float64()*4 - 2
				} else {
					x[i][f] = float64(rng.Intn(l)) / 4
				}
				y[i] += float64(f%3-1) * x[i][f] * x[i][f%2]
			}
			y[i] += 0.1 * rng.NormFloat64()
		}
		cfg := DefaultGBTConfig()
		if ds%2 == 1 {
			cfg = deep
		}
		got, want := TrainGBT(cfg, x, y), legacyTrainGBT(cfg, x, y)
		for i, row := range x {
			if a, b := got.Predict(row), want.Predict(row); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("dataset %d (%d rows, cardinalities %v, MaxDepth %d): row %d predicts %v, legacy %v",
					ds, n, card, cfg.MaxDepth, i, a, b)
			}
		}
	}
}

// The rank tables under growth: Update batches bring values below, between
// and above the known ones, a batch brings nothing new, and a column that was
// constant starts to vary. After every batch the distinct values, the bin
// offsets and the rows' slots equal a fresh ingest of the same rows, and a
// clone updated with the batch first leaves its source's tables as they were
// (the clone owns copies: growing a shared uniq in place would corrupt the
// source).
func TestIngestRanksMatchFreshIngest(t *testing.T) {
	cfg := DefaultGBTConfig()
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	add := func(col0 []float64, col1 float64) {
		for _, v := range col0 {
			x = append(x, []float64{v, col1, rng.Float64()})
			y = append(y, v+col1+rng.NormFloat64())
		}
	}
	add([]float64{10, 20, 30, 10, 20, 30, 20, 20}, 5)
	type tables struct {
		uniq   [][]float64
		binOff []int32
		slot   []int32
	}
	copyOf := func(m *GBTModel) tables {
		tb := tables{binOff: slices.Clone(m.binOff), slot: slices.Clone(m.slot[:len(m.x)*len(m.uniq)])}
		for _, u := range m.uniq {
			tb.uniq = append(tb.uniq, slices.Clone(u))
		}
		return tb
	}
	check := func(step string, m *GBTModel) {
		t.Helper()
		fresh := &GBTModel{cfg: cfg}
		fresh.ingest(m.x, m.y)
		if got, want := copyOf(m), copyOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ranks %+v, a fresh ingest of the same rows %+v", step, got, want)
		}
	}
	m := TrainGBT(cfg, x, y)
	check("fit", m)
	for _, batch := range []struct {
		name string
		col0 []float64
		col1 float64
	}{
		{"below", []float64{0, 5, 0}, 5},
		{"between", []float64{15, 25, 12}, 5},
		{"above", []float64{40, 50}, 5},
		{"nothing new", []float64{10, 20, 50}, 5},
		{"constant column varies", []float64{10, 30}, 7},
		{"below again", []float64{-1}, 3},
	} {
		// Column 2 is continuous, so only a batch that copies it from known
		// rows brings no new value.
		n := len(x)
		add(batch.col0, batch.col1)
		if batch.name == "nothing new" {
			for i := n; i < len(x); i++ {
				x[i][2] = x[i-n][2]
			}
		}
		src := copyOf(m)
		c := m.clone()
		c.Update(x, y, cfg.UpdateTrees)
		if got := copyOf(m); !reflect.DeepEqual(got, src) {
			t.Fatalf("%s: a clone's Update moved its source's ranks", batch.name)
		}
		check(batch.name+" (clone)", c)
		m.Update(x, y, cfg.UpdateTrees)
		check(batch.name, m)
	}
}

// A bare forest — TrainGBT's trees over its rows with no per-row predictions
// or ranks, as a prior memo hit hands it out — ingests every row on its first
// Update: updated twice, it is TrainGBT updated twice bit for bit, per-row
// predictions included, and its rank tables are a fresh ingest's.
func TestGBTUpdateOfBareForest(t *testing.T) {
	const n, grown = 200, 280
	cfg := DefaultGBTConfig()
	probes := gbtGoldenProbes()
	x, y := gbtGoldenRows(grown, 53)
	ref := TrainGBT(cfg, x[:n], y[:n])
	bare := &GBTModel{cfg: cfg, base: ref.base, nodes: slices.Clone(ref.nodes), roots: slices.Clone(ref.roots),
		x: x[:n], y: y[:n]}
	for _, m := range []*GBTModel{ref, bare} {
		m.Update(x[:n+40], y[:n+40], cfg.UpdateTrees)
		m.Update(x, y, cfg.UpdateTrees)
	}
	if got, want := gbtGoldenHash(bare, probes), gbtGoldenHash(ref, probes); got != want ||
		!slices.Equal(bare.nodes, ref.nodes) || !slices.Equal(bare.roots, ref.roots) || !slices.Equal(bare.pred, ref.pred) {
		t.Errorf("updated bare forest predicts %016x, updated TrainGBT %016x", got, want)
	}
	fresh := &GBTModel{cfg: cfg}
	fresh.ingest(x, y)
	if !reflect.DeepEqual(bare.uniq, fresh.uniq) || !slices.Equal(bare.binOff, fresh.binOff) || !slices.Equal(bare.slot, fresh.slot) {
		t.Error("updated bare forest's ranks differ from a fresh ingest of the same rows")
	}
}

package autotune

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The "no model bit moved" golden of the cost model: testdata/gbt.golden was
// written from the tree before the trainer's fast path (aligned value
// columns, leaf values recorded during growth, flat node array) and pins the
// fitted forest through its predictions. Each line hashes Predict over 256
// probe vectors, so a one-ulp move of any split, leaf or summation order
// fails by name here rather than downstream in a verdict test. Regenerate
// with
//
//	go test ./internal/autotune -run TestGBTGolden -update
//
// only for a change that is meant to move the model.

// gbtGoldenRows draws n rows whose eight columns are the cases the split
// search treats differently.
func gbtGoldenRows(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64()*4 - 2       // continuous: every value distinct, stride-subsampled cuts
		b := float64(rng.Intn(5))      // 5 values: massed ties, distinct-1 <= Thresholds
		d := float64(rng.Intn(2))      // binary: one cut
		e := float64(rng.Intn(40)) / 8 // 40 values with ties: cuts > 2*Thresholds, stride 2
		g := float64(rng.Intn(17))     // 17 values: distinct-1 == Thresholds exactly
		h := float64(rng.Intn(18))     // 18 values: one over, stride still 1
		// Column 2 is constant (never splittable); column 5 repeats column 1,
		// so the two offer exactly equal gains and the lower feature must win.
		x[i] = []float64{a, b, 1.5, d, e, b, g, h}
		y[i] = a*a + 0.7*b - 1.3*e*d + 0.1*g - 0.05*h + 0.1*rng.NormFloat64()
	}
	return x, y
}

// gbtGoldenProbes are the vectors a golden line predicts: the training
// distribution, with the quantized columns also landing on the half-integer
// midpoints the trainer picks as thresholds (Predict sends x == thr left).
func gbtGoldenProbes() [][]float64 {
	rng := rand.New(rand.NewSource(99))
	probes := make([][]float64, 256)
	for i := range probes {
		b := float64(rng.Intn(9)) / 2
		probes[i] = []float64{rng.Float64()*4 - 2, b, 1.5, float64(rng.Intn(3)) / 2,
			float64(rng.Intn(80)) / 16, b, float64(rng.Intn(33)) / 2, float64(rng.Intn(35)) / 2}
	}
	return probes
}

func gbtGoldenHash(m *GBTModel, probes [][]float64) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, p := range probes {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(m.Predict(p)))
		h.Write(word[:])
	}
	return h.Sum64()
}

// gbtGoldenRun refits a model the way the engine does — a full fit on the
// first n rows, then 30 steps of 8 fresh rows and 8 fresh rounds, with a
// from-scratch retrain whenever the forest would pass 4*Trees — and writes
// one line per fit. Every fifth step adds no rows (an Update on an unchanged
// dataset must leave the rank tables alone).
func gbtGoldenRun(b *bytes.Buffer, tag string, cfg GBTConfig, n int, probes [][]float64) {
	const steps, batch = 30, 8
	x, y := gbtGoldenRows(n+steps*batch, int64(1000+n))
	line := func(step, rows int, m *GBTModel) {
		fmt.Fprintf(b, "%s n=%d step=%d rows=%d trees=%d predict=%016x\n",
			tag, n, step, m.NumRows(), m.NumTrees(), gbtGoldenHash(m, probes))
		if rows != m.NumRows() {
			fmt.Fprintf(b, "  NumRows %d, fed %d\n", m.NumRows(), rows)
		}
	}
	m := TrainGBT(cfg, x[:n], y[:n])
	line(0, n, m)
	rows := n
	for step := 1; step <= steps; step++ {
		if step%5 != 0 {
			rows += batch
		}
		if m.NumTrees()+cfg.UpdateTrees > 4*cfg.Trees {
			m = TrainGBT(cfg, x[:rows], y[:rows])
		} else {
			m.Update(x[:rows], y[:rows], cfg.UpdateTrees)
		}
		line(step, rows, m)
	}
	fmt.Fprintf(b, "%s n=%d importance %+v\n", tag, n, m.FeatureImportance())
}

func TestGBTGolden(t *testing.T) {
	probes := gbtGoldenProbes()
	var b bytes.Buffer
	// 1 and 3 rows: the root itself is below MinSamples; 63/64/65 straddle
	// the engine's warm-start threshold; 600 is a transferred-pool-sized fit.
	for _, n := range []int{1, 3, 63, 64, 65, 600} {
		gbtGoldenRun(&b, "default", DefaultGBTConfig(), n, probes)
	}
	// Deep trees with few thresholds: leaves of one or two rows, stride > 1
	// on every non-binary column, several passes through the forest cap.
	deep := GBTConfig{Trees: 20, MaxDepth: 6, MinSamples: 2, LearningRate: 0.1, Thresholds: 3, UpdateTrees: 8}
	gbtGoldenRun(&b, "deep", deep, 65, probes)
	checkGolden(t, "gbt.golden", b.Bytes())
}

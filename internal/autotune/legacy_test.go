package autotune

// This file preserves the pre-bound-guided engine verbatim — the tuning
// loop and the sort-per-node GBT trainer exactly as they stood before the
// engine rework — as a test-only baseline. BenchmarkTuneEngine measures
// the new engine against legacyTune to substantiate the claimed engine-
// overhead speedup, and the comparison tests check the rework did not
// change what the search finds. Nothing here ships in the library.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/conv"
)

// legacyTrainGBT is the pre-rework trainer: every fit is from scratch and
// every tree node re-sorts its members' values per feature to pick
// candidate thresholds.
func legacyTrainGBT(cfg GBTConfig, x [][]float64, y []float64) *GBTModel {
	if len(x) == 0 || len(x) != len(y) {
		panic("autotune: bad training set")
	}
	m := &GBTModel{cfg: cfg}
	m.base = legacyMean(y)
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = m.base
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < cfg.Trees; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		root := int32(len(m.nodes))
		m.roots = append(m.roots, root)
		m.nodes = append(m.nodes, treeNode{})
		legacyBuildTree(m, root, x, resid, idx, 0)
		for i := range pred {
			pred[i] += cfg.LearningRate * m.leaf(root, x[i])
		}
	}
	return m
}

// legacyBuildTree grows the subtree of idx recursively into m.nodes[at].
func legacyBuildTree(m *GBTModel, at int32, x [][]float64, resid []float64, idx []int, depth int) {
	cfg := m.cfg
	if depth >= cfg.MaxDepth || len(idx) < cfg.MinSamples {
		m.nodes[at] = treeNode{feature: -1, value: legacyMeanAt(resid, idx)}
		return
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	var total, totalSq float64
	for _, i := range idx {
		total += resid[i]
		totalSq += resid[i] * resid[i]
	}
	baseSSE := totalSq - total*total/float64(len(idx))

	nf := len(x[idx[0]])
	vals := make([]float64, 0, len(idx))
	for f := 0; f < nf; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, x[i][f])
		}
		for _, thr := range legacyCandidateThresholds(vals, cfg.Thresholds) {
			var lSum, lSq, lN float64
			for _, i := range idx {
				if x[i][f] <= thr {
					lSum += resid[i]
					lSq += resid[i] * resid[i]
					lN++
				}
			}
			rN := float64(len(idx)) - lN
			if lN < 1 || rN < 1 {
				continue
			}
			rSum := total - lSum
			rSq := totalSq - lSq
			sse := (lSq - lSum*lSum/lN) + (rSq - rSum*rSum/rN)
			if gain := baseSSE - sse; gain > bestGain+1e-12 {
				bestFeat, bestThr, bestGain = f, thr, gain
			}
		}
	}
	if bestFeat < 0 {
		m.nodes[at] = treeNode{feature: -1, value: legacyMeanAt(resid, idx)}
		return
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	child := int32(len(m.nodes))
	m.nodes = append(m.nodes, treeNode{}, treeNode{})
	m.nodes[at] = treeNode{feature: int32(bestFeat), left: child, value: bestThr}
	legacyBuildTree(m, child, x, resid, left, depth+1)
	legacyBuildTree(m, child+1, x, resid, right, depth+1)
}

func legacyCandidateThresholds(vals []float64, k int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	cuts := len(uniq) - 1
	step := 1
	if cuts > k {
		step = cuts / k
	}
	var out []float64
	for i := 0; i < cuts; i += step {
		out = append(out, (uniq[i]+uniq[i+1])/2)
	}
	return out
}

func legacyMean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func legacyMeanAt(v []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += v[i]
	}
	return s / float64(len(idx))
}

// legacyTune is the pre-rework engine loop: full GBT retrain every batch,
// full sorts for the top-k set and the proposal ranking, no pruning.
func legacyTune(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "ate"}}

	var feats [][]float64
	var featStore []float64
	var costs []float64
	seen := make(map[conv.Config]bool)
	type scoredCfg struct {
		cfg  conv.Config
		cost float64
	}
	var topK []scoredCfg

	var batchBuf []conv.Config
	var resultBuf []measured
	measureBatch := func(cands []conv.Config) {
		batch := batchBuf[:0]
		for _, c := range cands {
			if rec.trace.Measurements+len(batch) >= opts.Budget {
				break
			}
			if seen[c] {
				continue
			}
			seen[c] = true
			batch = append(batch, c)
		}
		batchBuf = batch
		resultBuf = measureAllInto(resultBuf, measure, batch, opts.Workers, opts.MeasureLatency)
		for i, c := range batch {
			m, ok := resultBuf[i].m, resultBuf[i].ok
			rec.add(c, m, ok)
			cost := 20.0
			if ok {
				cost = math.Log(m.Seconds)
				topK = append(topK, scoredCfg{c, m.Seconds})
				sort.Slice(topK, func(i, j int) bool { return topK[i].cost < topK[j].cost })
				if len(topK) > opts.Walkers {
					topK = topK[:opts.Walkers]
				}
			}
			start := len(featStore)
			featStore = sp.FeaturesInto(featStore, c)
			feats = append(feats, featStore[start:len(featStore):len(featStore)])
			costs = append(costs, cost)
		}
	}

	if !opts.NoSeeds {
		measureBatch(sp.SeedConfigs())
	}
	initRandom := 3 * opts.Walkers
	if b := opts.Budget / 4; b < initRandom {
		initRandom = b
	}
	initial := make([]conv.Config, 0, initRandom)
	for i := 0; i < initRandom; i++ {
		initial = append(initial, sp.Sample(rng))
	}
	measureBatch(initial)

	var walkFeat []float64
	var rankCfgs []conv.Config
	var rankFeats [][]float64
	var rankStore, rankPreds []float64
	var rankedBuf []scoredCfg
	for rec.trace.Measurements < opts.Budget && !rec.stale(opts.Patience) {
		model := legacyTrainGBT(DefaultGBTConfig(), feats, costs)
		pool := make(map[conv.Config]bool)
		for i := 0; i < opts.Walkers; i++ {
			start := sp.Sample(rng)
			if i < len(topK) {
				start = topK[i].cfg
			}
			cur := start
			walkFeat = sp.FeaturesInto(walkFeat[:0], cur)
			curCost := model.Predict(walkFeat)
			for step := 0; step < opts.WalkSteps; step++ {
				next := sp.Neighbor(cur, rng)
				walkFeat = sp.FeaturesInto(walkFeat[:0], next)
				nextCost := model.Predict(walkFeat)
				if nextCost < curCost || rng.Float64() < 0.1 {
					cur, curCost = next, nextCost
				}
				if !seen[cur] {
					pool[cur] = true
				}
			}
		}
		for i := 0; i < 4*opts.BatchSize; i++ {
			if c := sp.Sample(rng); !seen[c] {
				pool[c] = true
			}
		}
		if len(pool) == 0 {
			break
		}
		rankCfgs = rankCfgs[:0]
		rankFeats = rankFeats[:0]
		rankStore = rankStore[:0]
		for c := range pool {
			rankCfgs = append(rankCfgs, c)
			start := len(rankStore)
			rankStore = sp.FeaturesInto(rankStore, c)
			rankFeats = append(rankFeats, rankStore[start:len(rankStore):len(rankStore)])
		}
		rankPreds = model.PredictBatch(rankFeats, rankPreds)
		ranked := rankedBuf[:0]
		for i, c := range rankCfgs {
			ranked = append(ranked, scoredCfg{c, rankPreds[i]})
		}
		rankedBuf = ranked
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].cost != ranked[j].cost {
				return ranked[i].cost < ranked[j].cost
			}
			return ranked[i].cfg.String() < ranked[j].cfg.String()
		})
		batch := make([]conv.Config, 0, opts.BatchSize)
		for i := 0; i < len(ranked) && i < opts.BatchSize; i++ {
			batch = append(batch, ranked[i].cfg)
		}
		measureBatch(batch)
	}
	if !rec.found {
		return nil, fmt.Errorf("autotune: no valid configuration found in %d measurements", rec.trace.Measurements)
	}
	return &rec.trace, nil
}

// measured is one measurement outcome of the legacy executor, slotted by
// submission index.
type measured struct {
	m  Measurement
	ok bool
}

// measureAll is the executor legacyTune still runs on, from before the
// tuner booked its batches through fanBooked: it measures cfgs[i] into
// result[i], fanning the calls across up to workers goroutines. latency
// emulates the per-measurement hardware round-trip (compile + launch +
// read-back) that the dry simulator otherwise elides; overlapping those
// waits is where a multi-worker executor pays off on real devices. The
// Measurer must be safe for concurrent use when workers > 1.
func measureAll(measure Measurer, cfgs []conv.Config, workers int, latency time.Duration) []measured {
	return measureAllInto(nil, measure, cfgs, workers, latency)
}

// measureAllInto is measureAll with a caller-recycled result buffer: the
// tuner passes the previous batch's slice back in, so steady-state batches
// allocate nothing in the executor.
func measureAllInto(out []measured, measure Measurer, cfgs []conv.Config, workers int, latency time.Duration) []measured {
	if cap(out) < len(cfgs) {
		out = make([]measured, len(cfgs))
	}
	out = out[:len(cfgs)]
	run := func(i int) {
		if latency > 0 {
			time.Sleep(latency)
		}
		out[i].m, out[i].ok = measure(cfgs[i])
	}
	fanIndexed(len(cfgs), workers, run)
	return out
}

// TestMeasureAllOrdering: the executor slots results by submission index
// regardless of completion order.
func TestMeasureAllOrdering(t *testing.T) {
	sp := mustSpace(t, true)
	var cfgs []conv.Config
	sp.enumerate(func(c conv.Config) bool {
		cfgs = append(cfgs, c)
		return len(cfgs) < 50
	})
	measure := KindMeasurer(arch, layer(), Direct)
	serial := measureAll(measure, cfgs, 1, 0)
	fanned := measureAll(measure, cfgs, 8, 0)
	if !reflect.DeepEqual(serial, fanned) {
		t.Error("executor results differ between 1 and 8 workers")
	}
}

package autotune

import "slices"

// This file implements the learned cost model: gradient-boosted regression
// trees with squared loss, the same model family (XGBoost) the paper's
// engine and TVM both use. Stdlib only, built from scratch.
//
// The trainer is built for the tuning loop's access pattern — the dataset
// only ever grows, a small batch per engine iteration — so it supports
// warm-start refits: Update keeps the fitted trees and boosts additional
// rounds against the residuals over the grown dataset. Splits are found on
// histograms (as in LightGBM) with one bin per distinct training value, so a
// node sees exactly the cut points a sort of its members would give.

// GBTConfig holds the boosting hyperparameters.
type GBTConfig struct {
	Trees        int     // number of boosting rounds of a full fit
	MaxDepth     int     // tree depth limit
	MinSamples   int     // minimum samples to split a node
	LearningRate float64 // shrinkage
	Thresholds   int     // candidate split thresholds per feature
	// UpdateTrees is how many fresh boosting rounds one warm-start Update
	// fits — the size of one engine refit.
	UpdateTrees int
}

// DefaultGBTConfig mirrors common XGBoost-for-autotuning settings.
func DefaultGBTConfig() GBTConfig {
	return GBTConfig{Trees: 60, MaxDepth: 4, MinSamples: 4, LearningRate: 0.3, Thresholds: 16, UpdateTrees: 8}
}

// GBTModel is a fitted gradient-boosted tree ensemble predicting a scalar
// cost (the tuner trains it on log simulated runtime). Beyond the trees it
// retains its training state — rows, per-row ensemble predictions, and the
// rows' histogram ranks — so Update can continue boosting where the last fit
// stopped.
type GBTModel struct {
	cfg  GBTConfig
	base float64
	// The forest is one node array: roots[t] is tree t's root, a split's
	// children sit side by side at left and left+1.
	nodes []treeNode
	roots []int32

	x    [][]float64
	y    []float64
	pred []float64 // current ensemble prediction per training row
	// uniq[f] holds feature f's distinct training values in ascending order,
	// and its bin b is histogram slot binOff[f]+b. slot holds, row-major,
	// every training row's bin slot per feature, so a histogram pass reads
	// one int32 per (row, feature) and never x itself.
	uniq   [][]float64
	binOff []int32
	slot   []int32

	sc trainScratch
}

// treeNode is a split (feature >= 0: value is the threshold, rows with
// x[feature] <= value go to nodes[left], the rest to nodes[left+1]) or a
// leaf (feature < 0: value is the prediction).
type treeNode struct {
	feature int32
	left    int32
	value   float64
}

// trainScratch holds the recycled buffers of the level-wise tree grower;
// nothing here survives a fit except as garbage-free capacity and leafVal,
// which boost reads right after the tree is grown.
type trainScratch struct {
	resid   []float64  // per-row residual for the tree being fit
	nodeOf  []int32    // per-row frontier-node id (-1 once settled in a leaf)
	leafVal []float64  // per-row value of the leaf the row settled in
	hist    []histBin  // histogram slots of binOff[len(uniq)] bins each
	level   []growNode // the frontier being split
	next    []growNode // its children
}

// histBin sums the residuals of one node's rows that fall in one bin.
type histBin struct {
	n       int
	sum, sq float64
}

// TrainGBT fits the ensemble on (x, y). It panics on empty or ragged
// input. The returned model supports warm-start refits via Update. Feature
// values must not be NaN: each feature's distinct values are kept sorted.
func TrainGBT(cfg GBTConfig, x [][]float64, y []float64) *GBTModel {
	if len(x) == 0 || len(x) != len(y) {
		panic("autotune: bad training set")
	}
	m := &GBTModel{cfg: cfg}
	m.base = mean(y)
	m.ingest(x, y)
	m.boost(cfg.Trees)
	return m
}

// Update warm-starts the model on a grown dataset: x and y must extend the
// rows the model was trained on (earlier rows unchanged, new rows
// appended). The fitted trees are kept; rounds fresh trees are boosted
// against the residuals over the whole grown dataset. Calling Update with
// the original dataset is exactly equivalent to a full retrain whose
// configured rounds match the total — the split between TrainGBT and
// Update does not change a single bit of the model (tests pin this).
//
// Update costs rounds passes over every row it holds, so the caller decides
// how often the growth is worth one: the engine (TuneFallible) calls it when
// the dataset has grown by an eighth, not per batch.
func (m *GBTModel) Update(x [][]float64, y []float64, rounds int) {
	if len(x) != len(y) || len(x) < len(m.x) {
		panic("autotune: Update dataset must extend the trained rows")
	}
	m.ingest(x, y)
	m.boost(rounds)
}

// NumTrees reports the fitted boosting rounds so far.
func (m *GBTModel) NumTrees() int { return len(m.roots) }

// NumRows reports the training rows the model currently holds.
func (m *GBTModel) NumRows() int { return len(m.x) }

// ingest adopts the grown dataset: it predicts the new rows under the
// current forest and ranks them. A new distinct value moves the bins above
// it, so a batch that brings one re-ranks every row. A row counts as ingested
// once predicted, so a bare forest — trees without per-row predictions —
// ingests all its rows.
func (m *GBTModel) ingest(x [][]float64, y []float64) {
	old := len(m.pred)
	for i := old; i < len(x); i++ {
		m.pred = append(m.pred, m.Predict(x[i]))
	}
	m.x, m.y = x, y
	if old == len(x) {
		return
	}
	nf := len(x[0])
	if old == 0 {
		m.uniq, m.binOff = make([][]float64, nf), make([]int32, nf+1)
	}
	first := old // the first row to rank
	for f, u := range m.uniq {
		known := len(u)
		for _, row := range x[old:] {
			if _, ok := slices.BinarySearch(u[:known], row[f]); !ok {
				u = append(u, row[f])
			}
		}
		if len(u) > known {
			slices.Sort(u)
			m.uniq[f], first = slices.Compact(u), 0
		}
	}
	for f, u := range m.uniq {
		m.binOff[f+1] = m.binOff[f] + int32(len(u))
	}
	m.slot = grow(m.slot, len(x)*nf)
	for i := first; i < len(x); i++ {
		for f, u := range m.uniq {
			b, _ := slices.BinarySearch(u, x[i][f])
			m.slot[i*nf+f] = m.binOff[f] + int32(b)
		}
	}
}

// boost fits rounds more trees on the current residuals. The grower leaves
// each row's leaf value in the scratch, so the ensemble predictions advance
// without walking the tree that was just grown.
func (m *GBTModel) boost(rounds int) {
	for t := 0; t < rounds; t++ {
		m.fitTree()
		for i, v := range m.sc.leafVal {
			m.pred[i] += m.cfg.LearningRate * v
		}
	}
}

// growNode is one frontier node of the level-wise tree grower.
type growNode struct {
	at    int32 // the node's slot in GBTModel.nodes
	id    int32 // its number among this level's splitters, -1 once settled
	child int32 // next-level number of its left child (right is +1), -1 for a leaf
	hist  int32 // its histogram slot; children start out in their parent's
	from  int32 // -1: filled from its rows; else its sibling's slot, subtracted from the parent's
	count int
	sum   float64 // residual sum over members, accumulated in row order
	sumSq float64

	bestFeat int
	bestThr  float64
	bestGain float64
}

// settle turns a frontier node into a leaf.
func (m *GBTModel) settle(node *growNode) {
	m.nodes[node.at] = treeNode{feature: -1, value: node.sum / float64(node.count)}
}

// fitTree grows one regression tree on the residuals y − pred and appends
// it to the forest, level by level: each level fills its splitters'
// histograms in one row-order pass, sweeps each node's bins per feature for
// its best split, and reassigns rows to the children in one row-order pass.
// A row that stops in a leaf has the leaf's value written to sc.leafVal: the
// reassignment sends x > threshold right and everything else left, which is
// the walk Predict takes (x <= threshold left), so leafVal[i] is exactly the
// new tree's prediction for row i.
func (m *GBTModel) fitTree() {
	n := len(m.x)
	cfg := m.cfg
	sc := &m.sc
	nf := len(m.uniq)
	nb := int(m.binOff[nf])
	sc.resid = grow(sc.resid, n)
	sc.nodeOf = grow(sc.nodeOf, n)
	sc.leafVal = grow(sc.leafVal, n)
	if cfg.MaxDepth > 0 { // the root's slot and one per split whose children both split
		sc.hist = grow(sc.hist, min(1<<min(cfg.MaxDepth-1, 30), n)*nb)
	}
	hist := func(s int32) []histBin { return sc.hist[int(s)*nb:][:nb] }

	root := growNode{at: int32(len(m.nodes)), from: -1}
	slots := int32(1) // the root holds slot 0
	m.roots = append(m.roots, root.at)
	m.nodes = append(m.nodes, treeNode{})
	for i := 0; i < n; i++ {
		sc.nodeOf[i] = 0
		r := m.y[i] - m.pred[i]
		sc.resid[i] = r
		root.count++
		root.sum += r
		root.sumSq += r * r
	}
	level, next := append(sc.level[:0], root), sc.next[:0]

	kThr := max(cfg.Thresholds, 1)
	for depth := 0; ; depth++ {
		// Settle the nodes that may not split (depth or sample limits, as in
		// a plain recursive grower) and number the splitters 0..k-1.
		splitters := int32(0)
		for g := range level {
			node := &level[g]
			if depth >= cfg.MaxDepth || node.count < cfg.MinSamples {
				m.settle(node)
				node.id = -1
			} else {
				node.id, splitters = splitters, splitters+1
			}
		}
		// Move the rows to the splitter numbering; rows of a settled node
		// take its value and leave. With nothing settled the numbering is
		// already the frontier's.
		if int(splitters) < len(level) {
			for i := 0; i < n; i++ {
				g := sc.nodeOf[i]
				if g < 0 {
					continue
				}
				node := &level[g]
				if sc.nodeOf[i] = node.id; node.id < 0 {
					sc.leafVal[i] = m.nodes[node.at].value
				}
			}
		}
		if splitters == 0 {
			break
		}
		// Siblings start in their parent's slot. When both split, the larger
		// keeps it as parent − smaller and the smaller is filled in a fresh
		// slot; a lone splitter refills it.
		if depth == 0 {
			clear(hist(0))
		}
		for q := 0; depth > 0 && q < len(level); q += 2 {
			a, b := &level[q], &level[q+1]
			if b.id >= 0 && (a.id < 0 || b.count < a.count) {
				a, b = b, a
			}
			if a.from = -1; a.id >= 0 && b.id >= 0 {
				a.hist, b.from, slots = slots, slots, slots+1
			}
			if a.id >= 0 {
				clear(hist(a.hist))
			}
		}
		// Compact the frontier to just the splitters.
		frontier := level[:0]
		for g := range level {
			if node := level[g]; node.id >= 0 {
				node.bestFeat, node.bestGain = -1, 0
				frontier = append(frontier, node)
			}
		}
		level = frontier

		// Fill the histograms, then subtract the larger siblings'.
		for i := 0; i < n; i++ {
			g := sc.nodeOf[i]
			if g < 0 || level[g].from >= 0 {
				continue
			}
			h, r := hist(level[g].hist), sc.resid[i]
			for _, s := range m.slot[i*nf:][:nf] {
				b := &h[s]
				b.n++
				b.sum += r
				b.sq += r * r
			}
		}
		for j := range level {
			if node := &level[j]; node.from >= 0 {
				h, s := hist(node.hist), hist(node.from)
				for k := range h {
					h[k] = histBin{h[k].n - s[k].n, h[k].sum - s[k].sum, h[k].sq - s[k].sq}
				}
			}
		}

		// Split search: one sweep over each node's bins per feature.
		for j := range level {
			node := &level[j]
			h := hist(node.hist)
			for f, u := range m.uniq {
				sweepHist(node, f, h[m.binOff[f]:m.binOff[f+1]], u, kThr)
			}
		}

		// Materialize the splits and reassign rows to children in row order
		// (so child sums accumulate exactly as a recursive grower's would).
		next = next[:0]
		for j := range level {
			node := &level[j]
			if node.bestFeat < 0 {
				m.settle(node)
				node.child = -1
				continue
			}
			left := int32(len(m.nodes))
			m.nodes = append(m.nodes, treeNode{}, treeNode{})
			m.nodes[node.at] = treeNode{feature: int32(node.bestFeat), left: left, value: node.bestThr}
			node.child = int32(len(next))
			next = append(next, growNode{at: left, hist: node.hist}, growNode{at: left + 1, hist: node.hist})
		}
		for i := 0; i < n; i++ {
			j := sc.nodeOf[i]
			if j < 0 {
				continue
			}
			node := &level[j]
			if node.child < 0 {
				sc.nodeOf[i] = -1
				sc.leafVal[i] = m.nodes[node.at].value
				continue
			}
			right := int32(0) // set from the flags, as in leaf
			if m.x[i][node.bestFeat] > node.bestThr {
				right = 1
			}
			c := node.child + right
			sc.nodeOf[i] = c
			r := sc.resid[i]
			next[c].count++
			next[c].sum += r
			next[c].sumSq += r * r
		}
		level, next = next, level
	}
	sc.level, sc.next = level, next
}

// sweepHist finds the best split of one node on one feature from the node's
// histogram h over the feature's distinct values u. The candidate thresholds
// are up to kThr midpoints between adjacent non-empty bins (stride-subsampled
// exactly like a sorted-uniques scan), and each candidate's gain comes from
// running prefix sums over the bins. Ties keep the first (lowest feature,
// lowest threshold) candidate, matching in-order search; a constant feature
// offers none. A node has fewer cut points than rows and no more than its
// feature, so the stride is 1 without counting unless both exceed kThr.
func sweepHist(node *growNode, f int, h []histBin, u []float64, kThr int) {
	step := 1
	if len(u)-1 > kThr && node.count-1 > kThr {
		cuts := -1
		for _, b := range h {
			if b.n > 0 {
				cuts++
			}
		}
		step = max(cuts/kThr, 1)
	}
	total, totalSq := node.sum, node.sumSq
	baseSSE := totalSq - total*total/float64(node.count)
	var lSum, lSq float64
	lN := 0
	last := -1 // the last non-empty bin passed
	wait := 0  // cut points still to pass over before the next candidate
	for b := range h {
		if h[b].n == 0 {
			continue
		}
		if last >= 0 {
			if wait == 0 {
				wait = step
				rN := node.count - lN
				rSum := total - lSum
				rSq := totalSq - lSq
				sse := (lSq - lSum*lSum/float64(lN)) + (rSq - rSum*rSum/float64(rN))
				if gain := baseSSE - sse; gain > node.bestGain+1e-12 {
					node.bestFeat, node.bestThr, node.bestGain = f, (u[last]+u[b])/2, gain
				}
			}
			wait--
		}
		lSum += h[b].sum
		lSq += h[b].sq
		if lN += h[b].n; lN == node.count {
			break
		}
		last = b
	}
}

// leaf walks the tree rooted at nodes[root] to the leaf features lands in.
func (m *GBTModel) leaf(root int32, features []float64) float64 {
	node := &m.nodes[root]
	for node.feature >= 0 {
		// Phrased so the compiler sets right from the comparison's flags: a
		// branch here is a coin flip the predictor loses on every level.
		right := int32(1)
		if features[node.feature] <= node.value {
			right = 0
		}
		node = &m.nodes[node.left+right]
	}
	return node.value
}

// Predict returns the modeled cost for one feature vector.
func (m *GBTModel) Predict(features []float64) float64 {
	out := m.base
	for _, root := range m.roots {
		out += m.cfg.LearningRate * m.leaf(root, features)
	}
	return out
}

// PredictBatch predicts every row of x into out (reused when its capacity
// suffices, allocated otherwise) and returns it. Iterating trees in the
// outer loop keeps each tree hot in cache across the whole batch; the
// summation order per row matches Predict exactly, so batched and
// per-config predictions are bit-identical.
func (m *GBTModel) PredictBatch(x [][]float64, out []float64) []float64 {
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	for i := range out {
		out[i] = m.base
	}
	for _, root := range m.roots {
		for i, f := range x {
			out[i] += m.cfg.LearningRate * m.leaf(root, f)
		}
	}
	return out
}

// grow resizes a recycled buffer to n elements, keeping the ones it holds
// and reallocating with slack only when the capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return append(make([]T, 0, n+n/2), buf...)[:n]
	}
	return buf[:n]
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

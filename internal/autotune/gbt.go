package autotune

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the learned cost model: gradient-boosted regression
// trees with squared loss, the same model family (XGBoost) the paper's
// engine and TVM both use. Stdlib only, built from scratch.
//
// The trainer is built for the tuning loop's access pattern — the dataset
// only ever grows, a small batch per engine iteration — so it supports
// warm-start refits: Update keeps the fitted trees and boosts additional
// rounds against the residuals over the grown dataset. Split finding runs on
// per-feature presorted column indices that are built once and merged
// incrementally as batches arrive, replacing the per-node value sort of a
// naive implementation with a single prefix sweep per (node, feature).

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
// presorted columns — so Update can continue boosting where the last fit
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
	// Per feature, the training rows ordered by (value, row): cols holds the
	// row ids and vals the values beside them, so the split search reads a
	// column front to back instead of chasing x[row][f]. cuts is the
	// column's distinct values minus one — the most cut points any node can
	// see on that feature.
	cols [][]int32
	vals [][]float64
	cuts []int

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
	flatVal []float64  // column values grouped by node, in sorted order
	flatRes []float64  // residuals aligned with flatVal
	cur     []int      // per-node write cursor into the flat arrays
	level   []growNode // the frontier being split
	next    []growNode // its children
	newIdx  []int32    // column-merge scratch for freshly ingested rows
}

// TrainGBT fits the ensemble on (x, y). It panics on empty or ragged
// input. The returned model supports warm-start refits via Update. Feature
// values must not be NaN: the columns are kept sorted.
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

// clone returns an independent copy of the fitted model: everything a later
// Update writes — the forest, the per-row predictions, the presorted columns
// — is copied, the scratch starts empty, and the training rows, which no fit
// ever writes, stay shared. Updating a clone is bit-identical to updating the
// original and leaves the original untouched, so one fitted prior can seed
// any number of concurrent searches (see sharedPrior).
func (m *GBTModel) clone() *GBTModel {
	c := &GBTModel{cfg: m.cfg, base: m.base, x: m.x, y: m.y,
		nodes: slices.Clone(m.nodes), roots: slices.Clone(m.roots),
		pred: slices.Clone(m.pred), cuts: slices.Clone(m.cuts),
		cols: make([][]int32, len(m.cols)), vals: make([][]float64, len(m.vals))}
	for f := range m.cols {
		c.cols[f], c.vals[f] = slices.Clone(m.cols[f]), slices.Clone(m.vals[f])
	}
	return c
}

// NumTrees reports the fitted boosting rounds so far.
func (m *GBTModel) NumTrees() int { return len(m.roots) }

// NumRows reports the training rows the model currently holds — prior
// (transferred) rows plus everything ingested since.
func (m *GBTModel) NumRows() int { return len(m.x) }

// ingest adopts the grown dataset: it predicts the new rows under the
// current forest and merges them into the presorted columns.
func (m *GBTModel) ingest(x [][]float64, y []float64) {
	old := len(m.x)
	if old == 0 {
		nf := len(x[0])
		m.cols, m.vals, m.cuts = make([][]int32, nf), make([][]float64, nf), make([]int, nf)
	}
	for i := old; i < len(x); i++ {
		m.pred = append(m.pred, m.Predict(x[i]))
	}
	m.x, m.y = x, y
	if old == len(x) {
		return
	}
	for f := range m.cols {
		m.mergeColumn(f, old)
	}
}

// mergeColumn extends one presorted column with rows old..len(x)-1: the new
// ids are sorted by (value, row) and merged from the back into the (possibly
// regrown) backing arrays, so steady-state updates reuse storage.
func (m *GBTModel) mergeColumn(f, old int) {
	n := len(m.x)
	x := m.x
	idx := m.sc.newIdx[:0]
	for r := old; r < n; r++ {
		idx = append(idx, int32(r))
	}
	m.sc.newIdx = idx
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(x[a][f], x[b][f]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	col, val := grow(m.cols[f], n), grow(m.vals[f], n)
	m.cols[f], m.vals[f] = col, val
	// Backward merge: fill positions n-1..0 from the tails of the old column
	// and the new batch; positions below the write cursor are still unread
	// old entries, so the merge is safely in place. Every new row id is above
	// every old one, so an old entry orders after a new one only on a
	// strictly larger value.
	i, j := old-1, len(idx)-1
	for w := n - 1; j >= 0; w-- {
		r := idx[j]
		if v := x[r][f]; i >= 0 && val[i] > v {
			col[w], val[w] = col[i], val[i]
			i--
		} else {
			col[w], val[w] = r, v
			j--
		}
	}
	cuts := 0
	for k := 1; k < n; k++ {
		if val[k] != val[k-1] {
			cuts++
		}
	}
	m.cuts[f] = cuts
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
	count int
	off   int     // where its segment starts in the flat arrays
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
// it to the forest, level by level: each level distributes every feature
// column (already sorted) into per-node segments with one linear pass, finds
// each node's best split with a prefix sweep over its segment, and reassigns
// rows to the children in a single row-order pass. No sorting happens per
// node. A row that stops in a leaf has the leaf's value written to
// sc.leafVal: the reassignment sends x > threshold right and everything else
// left, which is the walk Predict takes (x <= threshold left), so leafVal[i]
// is exactly the new tree's prediction for row i.
func (m *GBTModel) fitTree() {
	n := len(m.x)
	cfg := m.cfg
	sc := &m.sc
	sc.resid = grow(sc.resid, n)
	sc.nodeOf = grow(sc.nodeOf, n)
	sc.leafVal = grow(sc.leafVal, n)
	sc.flatVal = grow(sc.flatVal, n)
	sc.flatRes = grow(sc.flatRes, n)

	root := growNode{at: int32(len(m.nodes))}
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

	kThr := cfg.Thresholds
	if kThr < 1 {
		kThr = 1
	}
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
		// Compact the frontier to just the splitters and lay out their
		// segments.
		frontier := level[:0]
		off := 0
		for g := range level {
			if node := level[g]; node.id >= 0 {
				node.off, node.bestFeat, node.bestGain = off, -1, 0
				off += node.count
				frontier = append(frontier, node)
			}
		}
		level = frontier

		// Split search: one pass per feature distributes the presorted
		// column into per-node segments; each segment is then swept once. A
		// constant column offers no cut. At depth 0 the one node holds every
		// row, so the column is its own segment and only the residuals are
		// gathered.
		cur := grow(sc.cur, len(level))
		sc.cur = cur
		for f, col := range m.cols {
			if m.cuts[f] == 0 {
				continue
			}
			vals := m.vals[f]
			exact := m.cuts[f] <= kThr
			if depth == 0 {
				for k, r := range col {
					sc.flatRes[k] = sc.resid[r]
				}
				sweepSegment(&level[0], f, vals, sc.flatRes, kThr, exact)
				continue
			}
			for j := range level {
				cur[j] = level[j].off
			}
			for k, r := range col {
				g := sc.nodeOf[r]
				if g < 0 {
					continue
				}
				w := cur[g]
				sc.flatVal[w] = vals[k]
				sc.flatRes[w] = sc.resid[r]
				cur[g] = w + 1
			}
			for j := range level {
				node := &level[j]
				end := node.off + node.count
				sweepSegment(node, f, sc.flatVal[node.off:end], sc.flatRes[node.off:end], kThr, exact)
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
			next = append(next, growNode{at: left}, growNode{at: left + 1})
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

// sweepSegment finds the best split of one node on one feature. vals/res
// hold the node's members in ascending value order; candidate thresholds
// are up to kThr midpoints between distinct adjacent values (stride-
// subsampled exactly like a sorted-uniques scan), and each candidate's
// gain comes from running prefix sums — one linear sweep replaces the
// per-threshold passes of a naive grower. Ties keep the first (lowest
// feature, lowest threshold) candidate, matching in-order search. exact
// says the whole column has at most kThr cut points, so no node's segment
// can have more and the stride is 1 without counting.
func sweepSegment(node *growNode, f int, vals, res []float64, kThr int, exact bool) {
	step := 1
	if !exact {
		cuts := 0
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				cuts++
			}
		}
		if cuts > kThr {
			step = cuts / kThr
		}
	}
	total, totalSq := node.sum, node.sumSq
	baseSSE := totalSq - total*total/float64(node.count)
	var lSum, lSq float64
	lN := 0
	wait := 0 // cut points still to pass over before the next candidate
	for i := 0; i < len(vals); {
		v := vals[i]
		for i < len(vals) && vals[i] == v {
			r := res[i]
			lSum += r
			lSq += r * r
			lN++
			i++
		}
		if i >= len(vals) {
			break
		}
		if wait == 0 {
			wait = step
			rN := node.count - lN
			rSum := total - lSum
			rSq := totalSq - lSq
			sse := (lSq - lSum*lSum/float64(lN)) + (rSq - rSum*rSum/float64(rN))
			if gain := baseSSE - sse; gain > node.bestGain+1e-12 {
				node.bestFeat, node.bestThr, node.bestGain = f, (v+vals[i])/2, gain
			}
		}
		wait--
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

// RMSE is a convenience for model-quality tests.
func (m *GBTModel) RMSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := m.Predict(x[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

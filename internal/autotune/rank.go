package autotune

import "repro/internal/conv"

// This file is the engine's ranking machinery: every iteration the tuner
// keeps the k best measured configurations (by real cost) out of a stream
// much larger than k in bestK — a bounded max-heap whose root is the worst
// retained item — and ranks its whole candidate pool (by predicted cost) to
// pick a batch spread over tiles (pickBatch). Every backing array is
// recycled across iterations, so steady-state ranking allocates nothing.

// scored pairs a configuration with a cost: measured seconds for the
// incumbent set, a model prediction for proposal ranking.
type scored struct {
	cfg  conv.Config
	cost float64
}

// configLess is a total order on configurations (axes compared in
// declaration order). It breaks exact cost ties so rankings never depend
// on map iteration order or heap layout — with it, selection is a pure
// function of the candidate set.
func configLess(a, b conv.Config) bool {
	switch {
	case a.TileX != b.TileX:
		return a.TileX < b.TileX
	case a.TileY != b.TileY:
		return a.TileY < b.TileY
	case a.TileZ != b.TileZ:
		return a.TileZ < b.TileZ
	case a.ThreadsX != b.ThreadsX:
		return a.ThreadsX < b.ThreadsX
	case a.ThreadsY != b.ThreadsY:
		return a.ThreadsY < b.ThreadsY
	case a.ThreadsZ != b.ThreadsZ:
		return a.ThreadsZ < b.ThreadsZ
	case a.SharedPerBlock != b.SharedPerBlock:
		return a.SharedPerBlock < b.SharedPerBlock
	case a.Layout != b.Layout:
		return a.Layout < b.Layout
	case a.WinogradE != b.WinogradE:
		return a.WinogradE < b.WinogradE
	}
	return false
}

// tileDimsAfter reports whether a's tile dims (TileX, TileY, TileZ) come
// after b's in configLess order: every configuration of a's tile then orders
// after b, whatever its other axes.
func tileDimsAfter(a, b conv.Config) bool {
	switch {
	case a.TileX != b.TileX:
		return a.TileX > b.TileX
	case a.TileY != b.TileY:
		return a.TileY > b.TileY
	}
	return a.TileZ > b.TileZ
}

// scoredBefore ranks by cost ascending, ties by config order.
func scoredBefore(a, b scored) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return configLess(a.cfg, b.cfg)
}

// compareScored is scoredBefore as a three-way comparison, for sorting.
func compareScored(a, b scored) int {
	switch {
	case scoredBefore(a, b):
		return -1
	case scoredBefore(b, a):
		return 1
	}
	return 0
}

// tileKey is a configuration's tile: its output sub-block and Winograd
// edge, which fix its traffic. Configurations of one tile differ only in
// threads, Sb and layout.
type tileKey struct{ x, y, z, e int }

func tileOf(c conv.Config) tileKey {
	return tileKey{c.TileX, c.TileY, c.TileZ, c.WinogradE}
}

// pickBatch writes into dst (recycled) the first k configurations of ranked,
// in rank order, taking at most one per tile — except own's, the
// incumbent's tile, when refine is set — and returns it. taken is scratch
// for the tiles already picked.
func pickBatch(dst []conv.Config, ranked []scored, k int, own tileKey, refine bool, taken map[tileKey]bool) []conv.Config {
	dst = dst[:0]
	clear(taken)
	for _, s := range ranked {
		if len(dst) == k {
			break
		}
		t := tileOf(s.cfg)
		if taken[t] && !(refine && t == own) {
			continue
		}
		taken[t] = true
		dst = append(dst, s.cfg)
	}
	return dst
}

// bestK retains the k best scored items of a stream. Internally a max-heap
// on scoredBefore: the root is the worst retained item, so a push either
// lands in O(log k) or is rejected in O(1) against the root.
type bestK struct {
	items []scored
	k     int
}

// reset empties the heap and sets its bound, keeping the backing array.
func (h *bestK) reset(k int) {
	h.items = h.items[:0]
	h.k = k
}

// full reports whether the heap holds k items: a newcomer must then beat
// the root, the worst of them.
func (h *bestK) full() bool { return len(h.items) >= h.k }

// admits reports whether push(s) would retain s.
func (h *bestK) admits(s scored) bool {
	return h.k > 0 && (!h.full() || scoredBefore(s, h.items[0]))
}

// push offers one item; it is retained iff it is among the k best so far.
func (h *bestK) push(s scored) {
	if !h.admits(s) {
		return
	}
	if !h.full() {
		h.items = append(h.items, s)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !scoredBefore(h.items[p], h.items[i]) {
				break
			}
			h.items[p], h.items[i] = h.items[i], h.items[p]
			i = p
		}
		return
	}
	h.items[0] = s
	h.siftDown(0)
}

func (h *bestK) siftDown(i int) {
	n := len(h.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && scoredBefore(h.items[worst], h.items[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && scoredBefore(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// sorted writes the retained items into dst (recycled) in best-to-worst
// order and returns it. k is small (a batch or walker count), so an
// insertion sort beats a general sort and allocates nothing.
func (h *bestK) sorted(dst []scored) []scored {
	dst = append(dst[:0], h.items...)
	for i := 1; i < len(dst); i++ {
		s := dst[i]
		j := i - 1
		for j >= 0 && scoredBefore(s, dst[j]) {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = s
	}
	return dst
}

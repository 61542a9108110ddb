package pebble

import (
	"fmt"
	"math/bits"

	"repro/internal/dag"
)

// MaxOptimalVertices bounds the DAG size accepted by Optimal; the state
// space grows as (red sets of size ≤ S) × 2^(non-inputs).
const MaxOptimalVertices = 20

// Optimal computes the exact minimum I/O count Q of a complete red–blue
// pebble game on g with S red pebbles, by a shortest-path search over
// pebbling states (red set, blue set). Recomputation of values is allowed,
// exactly as in the Hong–Kung model. It is exponential and only accepts DAGs
// with at most MaxOptimalVertices vertices.
//
// Two exchanges shrink the search without changing Q. A red pebble is freed
// only when a Load or Compute needs its place: postponing a free never makes
// a later move illegal, except a Load or Compute of the freed vertex itself,
// which the postponed free then makes unnecessary. A value is stored only
// just before its red pebble is freed, or at the end: between a store and
// that free the vertex stays red, and nothing reads a blue pebble on a red
// vertex. So the red set grows until it holds S pebbles, after which each
// Load or Compute evicts one red pebble, storing it first or not, and the
// game ends once every output is blue or red, storing the red ones. A red
// pebble on a value no output still needs is dropped at once, for free, and
// such a value is never loaded or computed again. The search is A* under a
// lower bound on the I/O still to come, over a bucket queue (a move costs
// 0–2 I/Os), so it ends at the first finish it reaches.
func Optimal(g *dag.Graph, s int) (int, error) {
	n := g.NumVertices()
	if n > MaxOptimalVertices {
		return 0, fmt.Errorf("pebble: DAG too large for exact search (%d > %d vertices)", n, MaxOptimalVertices)
	}
	if need := g.MaxInDegree() + 1; s < need {
		return 0, fmt.Errorf("pebble: S=%d too small; need %d", s, need)
	}

	var inputMask, outputMask uint32
	for v := 0; v < n; v++ {
		switch g.Kind(v) {
		case dag.Input:
			inputMask |= 1 << v
		case dag.Output:
			outputMask |= 1 << v
		}
	}
	predMask := make([]uint32, n)
	succMask := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, p := range g.Preds(v) {
			predMask[v] |= 1 << uint(p)
			succMask[p] |= 1 << uint(v)
		}
	}
	// useful is the set of vertices with a path to an output not yet blue.
	// Edges run from lower to higher ids, so one descending pass finds it.
	useful := func(blue uint32) uint32 {
		u := outputMask &^ blue
		for v := n - 1; v >= 0; v-- {
			if succMask[v]&u != 0 {
				u |= 1 << v
			}
		}
		return u
	}

	// lower is a lower bound on the I/O still to come from (red, blue): one
	// store per output not yet blue, and one load per input that must turn
	// red — an operand, not red, of a vertex that must be computed, which
	// is an output neither red nor blue or such an operand neither red nor
	// blue. No move lowers it by more than the move's cost.
	lower := func(red, blue uint32) int {
		must := outputMask &^ (red | blue)
		var loads uint32
		for v := n - 1; v >= 0; v-- {
			if must&(1<<v) != 0 {
				ops := predMask[v] &^ red
				loads |= ops & inputMask
				must |= ops &^ blue
			}
		}
		return bits.OnesCount32(outputMask&^blue) + bits.OnesCount32(loads)
	}

	// A state is red<<32 | blue, its red set stripped of vertices no longer
	// useful, which a free move drops at no cost. dist holds the least cost
	// it was reached at; bucket f holds the states queued at cost + lower =
	// f, taken last in, first out, so a search along f's cheapest states
	// reaches an end quickly.
	key := func(red, blue uint32) uint64 { return uint64(red)<<32 | uint64(blue) }
	dist := map[uint64]int{}
	var buckets [][]uint64
	f := 0 // the least bucket that may hold a state
	relax := func(red, blue uint32, cost int) {
		red &= useful(blue)
		k := key(red, blue)
		if d, ok := dist[k]; ok && d <= cost {
			return
		}
		dist[k] = cost
		at := cost + lower(red, blue)
		for len(buckets) <= at {
			buckets = append(buckets, nil)
		}
		buckets[at] = append(buckets[at], k)
		f = min(f, at)
	}
	// place pebbles v red at cost c from (red, blue): directly below S
	// pebbles, else evicting each red vertex outside keep, stored first or
	// not.
	place := func(red, blue, v, keep uint32, c int) {
		if bits.OnesCount32(red) < s {
			relax(red|v, blue, c)
			return
		}
		for victims := red &^ keep; victims != 0; victims &= victims - 1 {
			u := victims & -victims
			relax(red&^u|v, blue, c)
			if blue&u == 0 {
				relax(red&^u|v, blue|u, c+1)
			}
		}
	}

	relax(0, inputMask, 0)
	// Every state still queued costs at least f to finish, so the search
	// ends once f reaches the best finish found.
	best := -1
	for f < len(buckets) && (best < 0 || f < best) {
		if len(buckets[f]) == 0 {
			f++
			continue
		}
		last := len(buckets[f]) - 1
		k := buckets[f][last]
		buckets[f] = buckets[f][:last]
		red, blue := uint32(k>>32), uint32(k)
		cost := dist[k]
		if cost+lower(red, blue) != f {
			continue // reached cheaper since it was queued
		}
		if outputMask&^(red|blue) == 0 {
			if q := cost + bits.OnesCount32(outputMask&red&^blue); best < 0 || q < best {
				best = q
			}
		}
		for todo := useful(blue) &^ red; todo != 0; todo &= todo - 1 {
			bit := todo & -todo
			v := bits.TrailingZeros32(bit)
			// Compute v (free), keeping its operands red.
			if inputMask&bit == 0 && red&predMask[v] == predMask[v] {
				place(red, blue, bit, predMask[v], cost)
			}
			// Load v (cost 1).
			if blue&bit != 0 {
				place(red, blue, bit, 0, cost+1)
			}
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("pebble: no complete calculation found (unreachable)")
	}
	return best, nil
}

package pebble

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/shapes"
)

// legacyOptimal is the exact solver Optimal replaced, kept as its reference:
// Dijkstra search over every pebbling state (red set, blue set) under the
// game's four moves one at a time, with no move postponed. Optimal must
// return the same Q on every DAG and S.
func legacyOptimal(g *dag.Graph, s int) (int, error) {
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
	for v := 0; v < n; v++ {
		for _, p := range g.Preds(v) {
			predMask[v] |= 1 << uint(p)
		}
	}

	type state struct{ red, blue uint32 }
	start := state{0, inputMask}
	dist := map[state]int{start: 0}
	pq := &legacyHeap{{start.red, start.blue, 0}}

	for pq.Len() > 0 {
		cur := heap.Pop(pq).(legacyEntry)
		st := state{cur.red, cur.blue}
		if d, ok := dist[st]; !ok || cur.cost > d {
			continue // stale entry
		}
		if st.blue&outputMask == outputMask {
			return cur.cost, nil
		}
		relax := func(ns state, cost int) {
			if d, ok := dist[ns]; !ok || cost < d {
				dist[ns] = cost
				heap.Push(pq, legacyEntry{ns.red, ns.blue, cost})
			}
		}
		redCount := bits.OnesCount32(st.red)
		for v := 0; v < n; v++ {
			bit := uint32(1) << v
			// Compute v (free).
			if st.red&bit == 0 && g.Kind(v) != dag.Input && redCount < s &&
				st.red&predMask[v] == predMask[v] {
				relax(state{st.red | bit, st.blue}, cur.cost)
			}
			// Load v (cost 1).
			if st.blue&bit != 0 && st.red&bit == 0 && redCount < s {
				relax(state{st.red | bit, st.blue}, cur.cost+1)
			}
			// Store v (cost 1).
			if st.red&bit != 0 && st.blue&bit == 0 {
				relax(state{st.red, st.blue | bit}, cur.cost+1)
			}
			// Free red pebble (free). Freeing blue pebbles can never help
			// since blue storage is unlimited, so it is not explored.
			if st.red&bit != 0 {
				relax(state{st.red &^ bit, st.blue}, cur.cost)
			}
		}
	}
	return 0, fmt.Errorf("pebble: no complete calculation found (unreachable)")
}

type legacyEntry struct {
	red, blue uint32
	cost      int
}

type legacyHeap []legacyEntry

func (h legacyHeap) Len() int            { return len(h) }
func (h legacyHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(legacyEntry)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// optimalCase is a DAG and the S values to solve it at; nil means every S
// from the least the game accepts to the vertex count.
type optimalCase struct {
	g  *dag.Graph
	ss []int
}

// optimalCases are the DAGs the pebble and bounds tests hand Optimal, at the
// S values they ask: the chain and diamond above, TestOptimalNeverAboveGreedy's
// 20-vertex convolution at S = 3, 4, 5, and the nine direct-convolution DAGs
// of bounds' TestCompulsoryTrafficPebbleOptimal at every S. Seeded random
// DAGs of 3–10 vertices add breadth.
func optimalCases(t *testing.T) map[string]optimalCase {
	t.Helper()
	cases := map[string]optimalCase{"diamond": {diamondGraph(), nil}}
	for k := 1; k <= 6; k++ {
		cases[fmt.Sprintf("chain%d", k)] = optimalCase{chainGraph(k), nil}
	}
	conv := func(s shapes.ConvShape) *dag.Graph {
		s.Batch = 1
		d, err := dag.BuildDirectConv(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return d.Graph
	}
	greedy := shapes.ConvShape{Cin: 1, Hin: 3, Win: 3, Cout: 1, Hker: 2, Wker: 2, Strid: 2}
	cases["direct greedy"] = optimalCase{conv(greedy), []int{3, 4, 5}}
	for _, s := range []shapes.ConvShape{
		{Cin: 1, Hin: 5, Win: 1, Cout: 1, Hker: 1, Wker: 1, Strid: 2},
		{Cin: 1, Hin: 7, Win: 1, Cout: 1, Hker: 1, Wker: 1, Strid: 3},
		{Cin: 1, Hin: 3, Win: 2, Cout: 1, Hker: 1, Wker: 1, Strid: 2},
		{Cin: 1, Hin: 4, Win: 1, Cout: 2, Hker: 1, Wker: 1, Strid: 3},
		{Cin: 1, Hin: 5, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 3},
		{Cin: 1, Hin: 4, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 2},
		{Cin: 1, Hin: 3, Win: 1, Cout: 1, Hker: 2, Wker: 1, Strid: 1},
		{Cin: 1, Hin: 3, Win: 1, Cout: 1, Hker: 3, Wker: 1, Strid: 1},
		{Cin: 1, Hin: 4, Win: 1, Cout: 1, Hker: 3, Wker: 1, Strid: 2},
	} {
		cases[fmt.Sprintf("direct %v", s)] = optimalCase{conv(s), nil}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		cases[fmt.Sprintf("random%d", i)] = optimalCase{randomDAG(rng, 3+rng.Intn(8)), nil}
	}
	return cases
}

// randomDAG draws a DAG of n vertices: one to three inputs, each later
// vertex reading one to three earlier ones, and every vertex no other reads
// an output.
func randomDAG(rng *rand.Rand, n int) *dag.Graph {
	g := dag.New()
	inputs := 1 + rng.Intn(3)
	read := make([]bool, n)
	preds := make([][]int, n)
	for v := inputs; v < n; v++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := rng.Intn(v)
			if !slices.Contains(preds[v], p) {
				preds[v] = append(preds[v], p)
				read[p] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case v < inputs:
			g.AddVertex(dag.Input, 0)
		case read[v]:
			g.AddVertex(dag.Internal, 1, preds[v]...)
		default:
			g.AddVertex(dag.Output, 1, preds[v]...)
		}
	}
	return g
}

// Optimal postpones frees and stores, drops values no output needs and
// searches under a lower bound; its comment argues that none of it changes
// Q. Hold it to the reference on every case.
func TestOptimalMatchesLegacy(t *testing.T) {
	for name, c := range optimalCases(t) {
		g, ss := c.g, c.ss
		if ss == nil {
			for S := g.MaxInDegree() + 1; S <= g.NumVertices(); S++ {
				ss = append(ss, S)
			}
		}
		for _, S := range ss {
			want, err := legacyOptimal(g, S)
			if err != nil {
				t.Fatalf("%s, S=%d: reference: %v", name, S, err)
			}
			got, err := Optimal(g, S)
			if err != nil {
				t.Fatalf("%s, S=%d: %v", name, S, err)
			}
			if got != want {
				t.Errorf("%s (%d vertices), S=%d: Optimal %d, reference %d", name, g.NumVertices(), S, got, want)
			}
		}
	}
}

// Package dag builds and analyzes the computation DAGs on which the paper's
// red–blue pebble game is played: the direct-convolution DAG of Figure 4 and
// the Winograd DAG of Figure 5, together with their building blocks, the
// summation tree (Lemma 4.7) and the linear-combination tree (Lemma 4.13).
//
// Vertices are dense integer ids. Edges always point from a lower id to a
// higher id, so graphs are acyclic by construction and the identity order is
// a topological order. Each vertex carries the index of the sub-computation
// (step) that produced it, giving the multi-step partition of Definition 4.1.
package dag

import "fmt"

// Kind classifies a vertex of the computation DAG.
type Kind uint8

const (
	// Input vertices have no predecessors and start with blue pebbles.
	Input Kind = iota
	// Internal vertices are intermediate values.
	Internal
	// Output vertices are final results; the game ends when all carry blue
	// pebbles.
	Output
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case Internal:
		return "internal"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Graph is a computation DAG under construction or analysis.
type Graph struct {
	preds [][]int32
	kinds []Kind
	steps []int32 // sub-computation index per vertex (0 for inputs)

	succs    [][]int32 // built lazily by Succs
	numSteps int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddVertex appends a vertex of the given kind produced by sub-computation
// step, with the given predecessors, and returns its id. Predecessor ids must
// already exist (be smaller than the new id); Input vertices must have none.
func (g *Graph) AddVertex(kind Kind, step int, preds ...int) int {
	id := len(g.kinds)
	if kind == Input && len(preds) > 0 {
		panic("dag: input vertex with predecessors")
	}
	if kind != Input && len(preds) == 0 {
		panic("dag: non-input vertex without predecessors")
	}
	ps := make([]int32, len(preds))
	for i, p := range preds {
		if p < 0 || p >= id {
			panic(fmt.Sprintf("dag: predecessor %d out of range for vertex %d", p, id))
		}
		ps[i] = int32(p)
	}
	g.preds = append(g.preds, ps)
	g.kinds = append(g.kinds, kind)
	g.steps = append(g.steps, int32(step))
	if step+1 > g.numSteps {
		g.numSteps = step + 1
	}
	g.succs = nil
	return id
}

// NumVertices is the number of vertices.
func (g *Graph) NumVertices() int { return len(g.kinds) }

// NumSteps is the number of sub-computations (1 + the largest step index).
func (g *Graph) NumSteps() int { return g.numSteps }

// Kind returns the kind of vertex v.
func (g *Graph) Kind(v int) Kind { return g.kinds[v] }

// Step returns the sub-computation index of vertex v.
func (g *Graph) Step(v int) int { return int(g.steps[v]) }

// Preds returns the predecessor ids of v. The slice must not be modified.
func (g *Graph) Preds(v int) []int32 { return g.preds[v] }

// Succs returns the successor ids of v, computing the reverse adjacency on
// first use. The slice must not be modified.
func (g *Graph) Succs(v int) []int32 {
	if g.succs == nil {
		g.succs = make([][]int32, len(g.kinds))
		for u := range g.preds {
			for _, p := range g.preds[u] {
				g.succs[p] = append(g.succs[p], int32(u))
			}
		}
	}
	return g.succs[v]
}

// MaxInDegree returns the largest predecessor count of any vertex. A pebble
// game needs at least MaxInDegree+1 red pebbles to compute every vertex.
func (g *Graph) MaxInDegree() int {
	m := 0
	for _, ps := range g.preds {
		if len(ps) > m {
			m = len(ps)
		}
	}
	return m
}

// CountKind returns the number of vertices of kind k.
func (g *Graph) CountKind(k Kind) int {
	n := 0
	for _, kk := range g.kinds {
		if kk == k {
			n++
		}
	}
	return n
}

// Vertices returns all vertex ids of kind k, in id order.
func (g *Graph) Vertices(k Kind) []int {
	var out []int
	for v, kk := range g.kinds {
		if kk == k {
			out = append(out, v)
		}
	}
	return out
}

// ComputeCount is the number of non-input vertices |V_inter ∪ V_out|, the
// quantity bounded by Lemmas 4.8 and 4.14.
func (g *Graph) ComputeCount() int {
	return g.NumVertices() - g.CountKind(Input)
}

// Validate checks structural invariants: inputs have no predecessors,
// non-inputs have at least one, all edges point forward, and outputs have no
// successors.
func (g *Graph) Validate() error {
	for v := range g.kinds {
		switch {
		case g.kinds[v] == Input && len(g.preds[v]) != 0:
			return fmt.Errorf("dag: input vertex %d has predecessors", v)
		case g.kinds[v] != Input && len(g.preds[v]) == 0:
			return fmt.Errorf("dag: vertex %d has no predecessors", v)
		}
		for _, p := range g.preds[v] {
			if int(p) >= v {
				return fmt.Errorf("dag: edge %d->%d not forward", p, v)
			}
		}
	}
	for _, v := range g.Vertices(Output) {
		if len(g.Succs(v)) != 0 {
			return fmt.Errorf("dag: output vertex %d has successors", v)
		}
	}
	return nil
}

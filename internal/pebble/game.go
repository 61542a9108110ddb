// Package pebble implements the Hong–Kung red–blue pebble game of Section
// 2.1: a rule-checked move executor, greedy schedulers that produce legal
// complete calculations for arbitrary DAGs, and an exact minimum-I/O solver
// for tiny DAGs. Together with package bounds it lets the paper's lower
// bound theorems be validated against actually-played games.
package pebble

import (
	"fmt"

	"repro/internal/dag"
)

// Op is a pebble-game move type.
type Op uint8

const (
	// Load places a red pebble on a vertex holding a blue pebble (I/O).
	Load Op = iota
	// Store places a blue pebble on a vertex holding a red pebble (I/O).
	Store
	// Compute places a red pebble on a vertex whose immediate predecessors
	// all hold red pebbles.
	Compute
	// FreeRed removes a red pebble.
	FreeRed
	// FreeBlue removes a blue pebble.
	FreeBlue
)

func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	case Compute:
		return "compute"
	case FreeRed:
		return "free-red"
	case FreeBlue:
		return "free-blue"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Move is one step of a pebble game.
type Move struct {
	Op Op
	V  int
}

// Game tracks the state of a red–blue pebble game played on a DAG with at
// most S red pebbles. The zero value is not usable; call NewGame.
type Game struct {
	g *dag.Graph
	s int

	red      []bool
	blue     []bool
	redCount int

	loads, stores int
}

// NewGame starts a game on g with S red pebbles. Every input vertex begins
// with a blue pebble, per the model.
func NewGame(g *dag.Graph, s int) (*Game, error) {
	if s < 1 {
		return nil, fmt.Errorf("pebble: S=%d < 1", s)
	}
	if need := g.MaxInDegree() + 1; s < need {
		return nil, fmt.Errorf("pebble: S=%d too small; DAG needs at least %d red pebbles", s, need)
	}
	game := &Game{
		g:    g,
		s:    s,
		red:  make([]bool, g.NumVertices()),
		blue: make([]bool, g.NumVertices()),
	}
	for _, v := range g.Vertices(dag.Input) {
		game.blue[v] = true
	}
	return game, nil
}

// S returns the red-pebble budget.
func (gm *Game) S() int { return gm.s }

// IO returns the number of I/O moves played so far: Q = loads + stores.
func (gm *Game) IO() int { return gm.loads + gm.stores }

// Loads returns the number of Load moves played.
func (gm *Game) Loads() int { return gm.loads }

// Stores returns the number of Store moves played.
func (gm *Game) Stores() int { return gm.stores }

// RedCount returns the number of red pebbles currently placed.
func (gm *Game) RedCount() int { return gm.redCount }

// Play applies one move, enforcing the four rules of the game. An illegal
// move leaves the state unchanged and returns an error.
func (gm *Game) Play(m Move) error {
	v := m.V
	if v < 0 || v >= gm.g.NumVertices() {
		return fmt.Errorf("pebble: vertex %d out of range", v)
	}
	switch m.Op {
	case Load:
		if !gm.blue[v] {
			return fmt.Errorf("pebble: load %d without blue pebble", v)
		}
		if gm.red[v] {
			return fmt.Errorf("pebble: load %d already red", v)
		}
		if gm.redCount >= gm.s {
			return fmt.Errorf("pebble: load %d exceeds %d red pebbles", v, gm.s)
		}
		gm.red[v] = true
		gm.redCount++
		gm.loads++
	case Store:
		if !gm.red[v] {
			return fmt.Errorf("pebble: store %d without red pebble", v)
		}
		if gm.blue[v] {
			return fmt.Errorf("pebble: store %d already blue", v)
		}
		gm.blue[v] = true
		gm.stores++
	case Compute:
		if gm.g.Kind(v) == dag.Input {
			return fmt.Errorf("pebble: compute on input vertex %d", v)
		}
		if gm.red[v] {
			return fmt.Errorf("pebble: compute %d already red", v)
		}
		for _, p := range gm.g.Preds(v) {
			if !gm.red[p] {
				return fmt.Errorf("pebble: compute %d with unpebbled predecessor %d", v, p)
			}
		}
		if gm.redCount >= gm.s {
			return fmt.Errorf("pebble: compute %d exceeds %d red pebbles", v, gm.s)
		}
		gm.red[v] = true
		gm.redCount++
	case FreeRed:
		if !gm.red[v] {
			return fmt.Errorf("pebble: free-red %d without red pebble", v)
		}
		gm.red[v] = false
		gm.redCount--
	case FreeBlue:
		if !gm.blue[v] {
			return fmt.Errorf("pebble: free-blue %d without blue pebble", v)
		}
		gm.blue[v] = false
	default:
		return fmt.Errorf("pebble: unknown op %v", m.Op)
	}
	return nil
}

// Run plays a whole move sequence, stopping at the first illegal move.
func (gm *Game) Run(moves []Move) error {
	for i, m := range moves {
		if err := gm.Play(m); err != nil {
			return fmt.Errorf("move %d (%v %d): %w", i, m.Op, m.V, err)
		}
	}
	return nil
}

// Complete reports whether the calculation is finished: every output vertex
// holds a blue pebble.
func (gm *Game) Complete() bool {
	for _, v := range gm.g.Vertices(dag.Output) {
		if !gm.blue[v] {
			return false
		}
	}
	return true
}

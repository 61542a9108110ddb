package bounds

import (
	"math"

	"repro/internal/shapes"
)

// Tile is an output sub-block choice x×y×z (width × height × channels) for
// the dataflow designs of Section 5.
type Tile struct {
	X, Y, Z int
}

// Volume is x·y·z, the number of partial sums held on chip per block.
func (t Tile) Volume() int { return t.X * t.Y * t.Z }

// OptimalityGap measures how far the tile is from the paper's optimality
// condition x·y = R·z, as |xy − Rz|/(xy + Rz) in [0, 1). Zero means the
// condition holds exactly.
func (t Tile) OptimalityGap(r float64) float64 {
	xy := float64(t.X * t.Y)
	rz := r * float64(t.Z)
	if xy+rz == 0 {
		return 0
	}
	return math.Abs(xy-rz) / (xy + rz)
}

// SatisfiesOptimality reports whether x·y = R·z holds within the given
// relative tolerance.
func (t Tile) SatisfiesOptimality(r, tol float64) bool {
	return t.OptimalityGap(r) <= tol
}

// DirectDataflowIO is the Section 5.2 I/O model (Equations 20–21): the
// number of elements read plus written by the output-stationary dataflow
// with output tile x×y×z, for the whole layer (batch-scaled).
//
//	Q = (Hout·Wout·Cout)/(xyz) · (Hker·Wker·Cin·(z + xy/R)) + Hout·Wout·Cout
//
// The xy/R term is the paper's approximation x'·y' ≈ μx·μy of the halo'd
// input tile.
func DirectDataflowIO(shape shapes.ConvShape, t Tile) float64 {
	out := float64(shape.OutputVolume())
	blocks := out / float64(t.Volume())
	ker := float64(shape.KernelSize())
	reads := blocks * ker * (float64(t.Z) + float64(t.X*t.Y)/shape.R())
	return (reads + out) * float64(shape.Batch)
}

// DirectDataflowIOExact is the same model with the exact halo:
// x' = μx + Wker − μ and y' = μy + Hker − μ, which matters for small tiles.
func DirectDataflowIOExact(shape shapes.ConvShape, t Tile) float64 {
	out := float64(shape.OutputVolume())
	blocks := out / float64(t.Volume())
	xp := float64(shape.Strid*t.X + shape.Wker - shape.Strid)
	yp := float64(shape.Strid*t.Y + shape.Hker - shape.Strid)
	reads := blocks * (float64(shape.KernelSize()*t.Z) + xp*yp*float64(shape.Cin))
	return (reads + out) * float64(shape.Batch)
}

// OptimalTileDirect returns the continuous-optimum tile of Section 5.2 for
// on-chip capacity s shared by np processors: xyz = s/np with xy = R·z, so
// z = sqrt(s/(np·R)) and x = y = sqrt(R·z). Values are clamped to the layer
// dimensions.
func OptimalTileDirect(shape shapes.ConvShape, s, np int) Tile {
	budget := float64(s) / float64(np)
	r := shape.R()
	z := math.Sqrt(budget / r)
	xy := r * z
	side := math.Sqrt(xy)
	t := Tile{
		X: clampInt(int(math.Round(side)), 1, shape.Wout()),
		Y: clampInt(int(math.Round(side)), 1, shape.Hout()),
		Z: clampInt(int(math.Round(z)), 1, shape.Cout),
	}
	return t
}

// DirectDataflowIOOptimal is Equation 21 at the continuous optimum:
//
//	Q = 2·Hout·Wout·Cout·Hker·Wker·Cin/sqrt(R·S/Np) + Hout·Wout·Cout
func DirectDataflowIOOptimal(shape shapes.ConvShape, s, np int) float64 {
	out := float64(shape.OutputVolume())
	ker := float64(shape.KernelSize())
	q := 2*out*ker/math.Sqrt(shape.R()*float64(s)/float64(np)) + out
	return q * float64(shape.Batch)
}

// OptimalTileWinograd returns the continuous optimum of Section 5.3: the
// on-chip budget covers the temporary arrays, 2·(e+r−1)²/e²·xyz = s/np, with
// the optimality condition xy = r²·z.
func OptimalTileWinograd(shape shapes.ConvShape, e, s, np int) Tile {
	r := float64(shape.Hker)
	ef := float64(e)
	alpha := ef + r - 1
	budget := float64(s) / float64(np) * ef * ef / (2 * alpha * alpha)
	z := math.Sqrt(budget) / r // xyz = budget, xy = r² z  =>  r²z² = budget
	xy := r * r * z
	side := math.Sqrt(xy)
	return Tile{
		X: clampInt(int(math.Round(side)), 1, shape.Wout()),
		Y: clampInt(int(math.Round(side)), 1, shape.Hout()),
		Z: clampInt(int(math.Round(z)), 1, shape.Cout),
	}
}

// WinogradDataflowIOOptimal is Equation 23:
//
//	Q = 2·Hout·Wout·Cout·Cin·r·(e+r−1)/(e·sqrt(S/Np)) + Hout·Wout·Cout
func WinogradDataflowIOOptimal(shape shapes.ConvShape, e, s, np int) float64 {
	r := float64(shape.Hker)
	ef := float64(e)
	alpha := ef + r - 1
	out := float64(shape.OutputVolume())
	q := 2*out*float64(shape.Cin)*r*alpha/(ef*math.Sqrt(float64(s)/float64(np))) + out
	return q * float64(shape.Batch)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package autotune

import (
	"math"

	"repro/internal/conv"
)

// NumFeatures is the length of the cost-model feature vector.
const NumFeatures = 14

// Features encodes a configuration for the cost model. The encoding mixes
// raw axes (log-scaled sizes), derived quantities the time model responds to
// (tile volume, thread count, blocks, shared pressure), and the optimality
// gap |xy − Rz|/(xy + Rz), which lets the model learn the paper's condition.
func (sp *Space) Features(c conv.Config) []float64 {
	return sp.FeaturesInto(make([]float64, 0, NumFeatures), c)
}

// FeaturesInto appends c's NumFeatures-long feature vector to dst and
// returns the extended slice. The tuner's hot loops call it with recycled
// buffers (dst[:0]) so per-candidate featurization allocates nothing.
func (sp *Space) FeaturesInto(dst []float64, c conv.Config) []float64 {
	s := sp.Shape
	r := sp.reuse
	vol := float64(c.TileX * c.TileY * c.TileZ)
	// Feature geometry follows the plane the blocks actually tile (for FFT
	// the padded frequency grid, not the spatial output).
	outH, outW := sp.row.plane(s)
	blocksX := math.Ceil(float64(outW) / float64(c.TileX))
	blocksY := math.Ceil(float64(outH) / float64(c.TileY))
	blocksZ := math.Ceil(float64(s.Cout) / float64(c.TileZ))
	blocks := blocksX * blocksY * blocksZ * float64(s.Batch)
	need := sp.row.sharedNeed(s, c)
	return append(dst,
		log2(float64(c.TileX)),
		log2(float64(c.TileY)),
		log2(float64(c.TileZ)),
		log2(vol),
		log2(float64(c.ThreadsX*c.ThreadsY*c.ThreadsZ)),
		log2(float64(c.SharedPerBlock)),
		log2(blocks),
		c.Tile().OptimalityGap(r),
		float64(need)/float64(c.SharedPerBlock),
		log2(float64(c.TileX*c.TileY)+1),
		float64(c.Layout),
		boolToF(c.ThreadsX*c.ThreadsY*c.ThreadsZ >= 32),
		log2(float64(c.TileZ)*r+1),
		vol/float64(c.SharedPerBlock),
	)
}

func log2(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log2(v)
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

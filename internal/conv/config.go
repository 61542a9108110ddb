// Package conv implements every convolution algorithm the paper evaluates,
// on top of the memsim simulated accelerator:
//
//   - Reference: a plain CPU direct convolution used as the correctness
//     oracle for everything else.
//   - NaiveDirect: a no-reuse direct kernel (the library's occasionally-slow
//     direct path).
//   - Im2colGEMM: the im2col-plus-blocked-GEMM "library" baseline standing in
//     for cuDNN's direct implementation.
//   - DirectTiled: the paper's near I/O-optimal output-stationary dataflow
//     (Section 5.2) with the channel-sliding input tile.
//   - WinogradUnfused: a library-style Winograd pipeline whose stages
//     materialize transformed tensors in off-chip memory.
//   - WinogradFused: the paper's Section 5.3 dataflow keeping the Π
//     temporary arrays resident in shared memory.
//
// Every implementation computes real float32 results (verified against
// Reference in the tests) while counting off-chip traffic through
// memsim.Block, so measured I/O — not a paper formula — is what the
// experiments report.
package conv

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// Config is one point of the paper's configuration space (Table 1): the
// output tile, the thread-block geometry, the shared-memory allocation and
// the data layout.
type Config struct {
	// TileX/TileY/TileZ is the output sub-block x×y×z of Section 5.
	TileX, TileY, TileZ int
	// ThreadsX/Y/Z factor the threads of a block (Nxt, Nyt, Nzt); each must
	// divide into its tile dimension's work.
	ThreadsX, ThreadsY, ThreadsZ int
	// SharedPerBlock is Sb, the shared memory per block in floats.
	SharedPerBlock int
	// Layout is the image memory layout.
	Layout tensor.Layout
	// WinogradE is the output tile edge e for the Winograd dataflow
	// (ignored by direct implementations).
	WinogradE int
}

// Threads is Nxt·Nyt·Nzt.
func (c Config) Threads() int { return c.ThreadsX * c.ThreadsY * c.ThreadsZ }

// Tile returns the output tile as a bounds.Tile.
func (c Config) Tile() bounds.Tile { return bounds.Tile{X: c.TileX, Y: c.TileY, Z: c.TileZ} }

func (c Config) String() string {
	return fmt.Sprintf("tile=%dx%dx%d threads=%dx%dx%d Sb=%d layout=%v e=%d",
		c.TileX, c.TileY, c.TileZ, c.ThreadsX, c.ThreadsY, c.ThreadsZ,
		c.SharedPerBlock, c.Layout, c.WinogradE)
}

// layoutEff maps a layout to the off-chip bandwidth efficiency used by the
// time model. On real hardware the layout changes how well loads coalesce;
// the simulator reproduces that as a deterministic efficiency factor
// (CHW is the preferred layout for the paper's row-major dataflows).
func layoutEff(l tensor.Layout) float64 {
	switch l {
	case tensor.NCHW:
		return 1.0
	case tensor.NCWH:
		return 0.93
	case tensor.NHWC:
		return 0.85
	}
	return 0.85
}

// DirectSharedNeed returns the shared-memory floats the direct tiled
// dataflow requires for a config: the resident output tile, one halo'd input
// tile channel, and z kernel slices.
func DirectSharedNeed(s shapes.ConvShape, c Config) int {
	xp := s.Strid*c.TileX + s.Wker - s.Strid
	yp := s.Strid*c.TileY + s.Hker - s.Strid
	return c.TileX*c.TileY*c.TileZ + xp*yp + s.Hker*s.Wker*c.TileZ
}

// WinogradSharedNeed returns the shared-memory floats the fused Winograd
// dataflow requires: the Π accumulators plus Λ scratch (the paper's two
// temporary arrays, 2·α²·xyz/e²), the halo'd input tile, the per-sub-tile V
// buffers, and one pre-transformed-filter tile.
func WinogradSharedNeed(s shapes.ConvShape, c Config) int {
	e := c.WinogradE
	r := s.Hker
	alpha := e + r - 1
	subtiles := ((c.TileX + e - 1) / e) * ((c.TileY + e - 1) / e)
	xp := ((c.TileX+e-1)/e)*e + r - 1
	yp := ((c.TileY+e-1)/e)*e + r - 1
	return 2*alpha*alpha*subtiles*c.TileZ + xp*yp + alpha*alpha*subtiles + alpha*alpha + r*r
}

// ValidateDirect checks a config against a shape and architecture for the
// direct tiled dataflow.
func (c Config) ValidateDirect(s shapes.ConvShape, arch memsim.Arch) error {
	if err := c.common(s, arch); err != nil {
		return err
	}
	if need := DirectSharedNeed(s, c); need > c.SharedPerBlock {
		return fmt.Errorf("conv: tiles need %d floats of shared memory, Sb=%d", need, c.SharedPerBlock)
	}
	return nil
}

// ValidateWinograd checks a config for the fused Winograd dataflow.
func (c Config) ValidateWinograd(s shapes.ConvShape, arch memsim.Arch) error {
	if err := c.common(s, arch); err != nil {
		return err
	}
	if !s.WinogradOK() {
		return fmt.Errorf("conv: %v does not admit Winograd", s)
	}
	if c.WinogradE < 2 {
		return fmt.Errorf("conv: winograd e=%d < 2", c.WinogradE)
	}
	if c.TileX%c.WinogradE != 0 || c.TileY%c.WinogradE != 0 {
		return fmt.Errorf("conv: tile %dx%d not divisible by e=%d", c.TileX, c.TileY, c.WinogradE)
	}
	if need := WinogradSharedNeed(s, c); need > c.SharedPerBlock {
		return fmt.Errorf("conv: winograd tiles need %d floats of shared memory, Sb=%d", need, c.SharedPerBlock)
	}
	return nil
}

func (c Config) common(s shapes.ConvShape, arch memsim.Arch) error {
	// Winograd tiles cover whole sub-tile grids, so they may overhang the
	// output by up to e−1 (the kernel clips partial edge sub-tiles).
	maxX, maxY := s.Wout(), s.Hout()
	if e := c.WinogradE; e > 1 {
		maxX = (maxX + e - 1) / e * e
		maxY = (maxY + e - 1) / e * e
	}
	switch {
	case c.TileX < 1 || c.TileY < 1 || c.TileZ < 1:
		return fmt.Errorf("conv: tile %dx%dx%d has empty dimension", c.TileX, c.TileY, c.TileZ)
	case c.TileX > maxX || c.TileY > maxY || c.TileZ > s.Cout:
		return fmt.Errorf("conv: tile %dx%dx%d exceeds output %dx%dx%d",
			c.TileX, c.TileY, c.TileZ, maxX, maxY, s.Cout)
	case c.ThreadsX < 1 || c.ThreadsY < 1 || c.ThreadsZ < 1:
		return fmt.Errorf("conv: empty thread dimension")
	case c.Threads() > 1024:
		return fmt.Errorf("conv: %d threads per block exceeds 1024", c.Threads())
	case c.SharedPerBlock < 1:
		return fmt.Errorf("conv: Sb=%d < 1", c.SharedPerBlock)
	case c.SharedPerBlock > arch.MaxSharedPerBlock():
		return fmt.Errorf("conv: Sb=%d exceeds Ssm/2=%d (need two resident blocks per SM)",
			c.SharedPerBlock, arch.MaxSharedPerBlock())
	}
	// Grouped convolutions require blocks that never straddle a group
	// boundary in the z (output-channel) axis: TileZ must tile Cout/G
	// exactly, so the per-axis count aggregates stay exact per group.
	if g := s.G(); g > 1 {
		cpg := s.Cout / g
		if c.TileZ > cpg || cpg%c.TileZ != 0 {
			return fmt.Errorf("conv: tile z=%d does not tile the %d channels of one of %d groups",
				c.TileZ, cpg, g)
		}
	}
	return nil
}

// Result bundles the output of a simulated convolution run.
type Result struct {
	Output *tensor.Tensor
	Counts memsim.Counts
	Launch memsim.Launch
	// Seconds is the simulated runtime under arch's time model.
	Seconds float64
}

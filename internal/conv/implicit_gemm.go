package conv

import (
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// ImplicitGEMM is the third library-style direct algorithm: the GEMM view of
// the convolution computed without materializing the patch matrix. Each
// GEMM block gathers its K×bn operand tile directly from the input image, so
// the patch matrix's off-chip round trip disappears while the gather itself
// still re-reads overlapping windows. This is how modern libraries
// implement their "implicit GEMM" direct path; the paper's cuDNN-7-era
// baseline (NaiveDirect / Im2colGEMM) predates it, so this algorithm is
// provided as an extension and is not part of the Figure-9 baseline.
func ImplicitGEMM(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	return implicitGEMM(arch, s, input, kernels)
}

// ImplicitGEMMDry returns ImplicitGEMM's counts and simulated time without
// computing values.
func ImplicitGEMMDry(arch memsim.Arch, s shapes.ConvShape) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return implicitGEMM(arch, s, nil, nil)
}

func implicitGEMM(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	kk := s.KernelSize()
	p := s.Hout() * s.Wout()
	// Non-padding patch elements per image per channel (closed form).
	validPatch := sumValidTaps(s.Hout(), s.Hker, s.Strid, s.Pad, s.Hin) *
		sumValidTaps(s.Wout(), s.Wker, s.Strid, s.Pad, s.Win)

	// Single fused kernel: same blocked GEMM structure as gemmPhase, but the
	// B-panel loads are gathers from the input image (valid elements only;
	// padding zeros are synthesized on chip) and the patch matrix is never
	// stored. A-panel (kernel) loads are unchanged.
	bm, bn := gemmTile, gemmTile
	blocksM := (s.Cout + bm - 1) / bm
	blocksN := (p + bn - 1) / bn
	var c memsim.Counts
	c.GlobalLoads = int64(blocksN)*int64(s.Cout)*int64(kk) + // A panels per column block
		int64(blocksM)*validPatch*int64(s.Cin) // gathered B panels per row block
	c.GlobalStores = int64(s.Cout) * int64(p)
	c.SharedStores = c.GlobalLoads
	c.SharedLoads = 2 * int64(s.Cout) * int64(p) * int64(kk)
	c.Flops = 2 * int64(s.Cout) * int64(p) * int64(kk)
	scaleCountsBy(&c, int64(s.Batch))

	l := memsim.Launch{
		Blocks:          blocksM * blocksN * s.Batch,
		ThreadsPerBlock: 256,
		SharedPerBlock:  3 * gemmTile * gemmTile,
		// The B gather reads short window segments: the same strided-access
		// penalty as the im2col scatter, paid on loads instead of stores.
		BandwidthEff: 0.7,
	}

	var out *tensor.Tensor
	if input != nil {
		var err error
		// Arithmetic is identical to the materialized GEMM; the wet path
		// reuses it (the counting above, not the arithmetic, is what
		// distinguishes the algorithms).
		out, err = im2colCompute(s, input, kernels)
		if err != nil {
			return nil, err
		}
	}
	return finishPhased(arch, out, []phase{{c, l}}), nil
}

func scaleCountsBy(c *memsim.Counts, n int64) {
	c.GlobalLoads *= n
	c.GlobalStores *= n
	c.SharedLoads *= n
	c.SharedStores *= n
	c.Flops *= n
}

package conv

import (
	"repro/internal/gemm"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// This file contains the two "library" baselines standing in for cuDNN's
// direct paths: a no-reuse naive kernel and im2col+blocked-GEMM. Each
// implementation exists in a wet mode (computes real values, counts as it
// copies) and a dry mode (same counts, no data): the tests pin dry == wet on
// small shapes, which licenses dry runs at paper scale.

// phase is one simulated kernel launch contributing to a Result.
type phase struct {
	counts memsim.Counts
	launch memsim.Launch
}

// finishPhased sums the launches of a kernel into its Result; the reported
// launch geometry is the last phase's.
func finishPhased(arch memsim.Arch, out *tensor.Tensor, phases []phase) *Result {
	var total memsim.Counts
	var seconds float64
	for _, p := range phases {
		total.GlobalLoads += p.counts.GlobalLoads
		total.GlobalStores += p.counts.GlobalStores
		total.SharedLoads += p.counts.SharedLoads
		total.SharedStores += p.counts.SharedStores
		total.Flops += p.counts.Flops
		seconds += arch.Time(p.counts, p.launch)
	}
	l := phases[len(phases)-1].launch
	return &Result{Output: out, Counts: total, Launch: l, Seconds: seconds}
}

// clippedLen returns the length of the overlap of [lo, lo+n) with [0, max).
func clippedLen(lo, n, max int) int {
	hi := lo + n
	if lo < 0 {
		lo = 0
	}
	if hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// sumValidTaps returns the total over all output coordinates of how many
// kernel taps land inside the unpadded input: Σ_o |{p in [0,ker) :
// 0 <= o*stride+p-pad < in}|. Because the per-coordinate tap counts of the
// two spatial axes multiply independently, every baseline's valid-MAC and
// valid-patch totals are products of two of these sums — no per-coordinate
// slices needed on the measurement fast path.
func sumValidTaps(out, ker, stride, pad, in int) int64 {
	var sum int64
	for o := 0; o < out; o++ {
		sum += int64(clippedLen(o*stride-pad, ker, in))
	}
	return sum
}

// NaiveDirect runs the no-reuse direct kernel: every multiply-accumulate
// fetches both operands from off-chip memory. This is the upper baseline the
// paper's dataflow is measured against when im2col is worse.
func NaiveDirect(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	return naiveDirect(arch, s, input, kernels)
}

// NaiveDirectDry returns the same counts and simulated time as NaiveDirect
// without computing any values (Output is nil).
func NaiveDirectDry(arch memsim.Arch, s shapes.ConvShape) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return naiveDirect(arch, s, nil, nil)
}

func naiveDirect(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	// Valid MACs factor across the two spatial axes (closed form, no
	// per-coordinate slices).
	macs := sumValidTaps(s.Hout(), s.Hker, s.Strid, s.Pad, s.Hin) *
		sumValidTaps(s.Wout(), s.Wker, s.Strid, s.Pad, s.Win)
	macs *= int64(s.Cin) * int64(s.Cout) * int64(s.Batch)
	outputs := int64(s.OutputVolume()) * int64(s.Batch)

	var counts memsim.Counts
	counts.GlobalLoads = 2 * macs // one input + one weight per MAC
	counts.GlobalStores = outputs
	counts.Flops = 2 * macs

	var out *tensor.Tensor
	if input != nil {
		var err error
		out, err = Reference(s, input, kernels)
		if err != nil {
			return nil, err
		}
	}
	const threads = 256
	l := memsim.Launch{
		Blocks:          int((outputs + threads - 1) / threads),
		ThreadsPerBlock: threads,
		SharedPerBlock:  1,   // no staging
		BandwidthEff:    0.8, // overlapping-window reads coalesce imperfectly
	}
	return finishPhased(arch, out, []phase{{counts, l}}), nil
}

// gemmTile is the square staging tile edge of the baseline blocked GEMM.
const gemmTile = 64

// gemmPhase returns the counted phase of a blocked m×k×n GEMM whose operand
// tiles are staged through shared memory, plus the launch geometry. It only
// counts; the wet path does the actual arithmetic separately (with plain
// blocked GEMM, which moves exactly the same data).
func gemmPhase(m, k, n int) phase {
	bm, bn := gemmTile, gemmTile
	blocksM := (m + bm - 1) / bm
	blocksN := (n + bn - 1) / bn
	var c memsim.Counts
	// Each (i,j) block loads its A row-panel and B column-panel once per k
	// step; exact element counts account for edge tiles.
	c.GlobalLoads = int64(blocksN)*int64(m)*int64(k) + int64(blocksM)*int64(k)*int64(n)
	c.GlobalStores = int64(m) * int64(n)
	c.SharedStores = c.GlobalLoads
	c.SharedLoads = 2 * int64(m) * int64(n) * int64(k) // operand reads per MAC
	c.Flops = 2 * int64(m) * int64(n) * int64(k)
	return phase{c, memsim.Launch{
		Blocks:          blocksM * blocksN,
		ThreadsPerBlock: 256,
		SharedPerBlock:  3 * gemmTile * gemmTile,
		BandwidthEff:    0.9, // contiguous panel streaming
	}}
}

// Im2colGEMM runs the im2col-plus-GEMM baseline: the patch matrix is
// materialized in off-chip memory, then a blocked GEMM with shared-memory
// staging multiplies the reshaped kernels against it. This is the "best
// direct path of the library" the paper compares with.
func Im2colGEMM(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	return im2col(arch, s, input, kernels)
}

// Im2colGEMMDry returns Im2colGEMM's counts and simulated time without
// computing values.
func Im2colGEMMDry(arch memsim.Arch, s shapes.ConvShape) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return im2col(arch, s, nil, nil)
}

func im2col(arch memsim.Arch, s shapes.ConvShape, input, kernels *tensor.Tensor) (*Result, error) {
	kk := s.KernelSize()     // K = Wker·Hker·Cin
	p := s.Hout() * s.Wout() // columns per image
	// Non-padding patch elements per image per channel: the per-axis valid
	// tap sums multiply (closed form).
	validPatch := sumValidTaps(s.Hout(), s.Hker, s.Strid, s.Pad, s.Hin) *
		sumValidTaps(s.Wout(), s.Wker, s.Strid, s.Pad, s.Win)

	// Phase 1: im2col. Valid elements are read from the input; every patch
	// element (including padding zeros) is written to the patch matrix.
	var ph1 memsim.Counts
	ph1.GlobalLoads = validPatch * int64(s.Cin) * int64(s.Batch)
	ph1.GlobalStores = int64(kk) * int64(p) * int64(s.Batch)
	l1 := memsim.Launch{
		Blocks:          int((ph1.GlobalStores + 255) / 256),
		ThreadsPerBlock: 256,
		SharedPerBlock:  1,
		// The patch matrix is written in kernel-window order: short strided
		// segments, well below peak DRAM burst efficiency.
		BandwidthEff: 0.6,
	}

	// Phase 2: GEMM (Cout × K) · (K × P) per image.
	g := gemmPhase(s.Cout, kk, p)
	g.counts.GlobalLoads *= int64(s.Batch)
	g.counts.GlobalStores *= int64(s.Batch)
	g.counts.SharedLoads *= int64(s.Batch)
	g.counts.SharedStores *= int64(s.Batch)
	g.counts.Flops *= int64(s.Batch)
	g.launch.Blocks *= s.Batch

	var out *tensor.Tensor
	if input != nil {
		var err error
		out, err = im2colCompute(s, input, kernels)
		if err != nil {
			return nil, err
		}
	}
	return finishPhased(arch, out, []phase{{ph1, l1}, g}), nil
}

// LibraryDirectDry returns the better of the two library direct paths (naive
// and im2col+GEMM) — the paper's "best of the two direct implementations in
// cuDNN", the baseline its dataflow is compared against.
func LibraryDirectDry(arch memsim.Arch, s shapes.ConvShape) (*Result, error) {
	naive, err := NaiveDirectDry(arch, s)
	if err != nil {
		return nil, err
	}
	col, err := Im2colGEMMDry(arch, s)
	if err != nil {
		return nil, err
	}
	if naive.Seconds < col.Seconds {
		return naive, nil
	}
	return col, nil
}

// im2colCompute is the wet path: real patch matrix, real GEMM. The patch
// and product matrices come from the pooled scratch arena, so back-to-back
// wet baselines reuse one allocation.
func im2colCompute(s shapes.ConvShape, input, kernels *tensor.Tensor) (*tensor.Tensor, error) {
	kk := s.KernelSize()
	p := s.Hout() * s.Wout()
	out := tensor.New(s.Batch, s.Cout, s.Hout(), s.Wout())
	ks := scratchPool.Get().(*kernelScratch)
	defer scratchPool.Put(ks)
	patch := ks.buf(bufPatch, kk*p)
	prod := ks.buf(bufProd, s.Cout*p)
	a := kernels.Data // (Cout, K) row-major in NCHW kernel storage
	for n := 0; n < s.Batch; n++ {
		col := 0
		for oh := 0; oh < s.Hout(); oh++ {
			for ow := 0; ow < s.Wout(); ow++ {
				row := 0
				for c := 0; c < s.Cin; c++ {
					for kh := 0; kh < s.Hker; kh++ {
						for kw := 0; kw < s.Wker; kw++ {
							patch[row*p+col] = input.AtPadded(n, c, oh*s.Strid+kh-s.Pad, ow*s.Strid+kw-s.Pad)
							row++
						}
					}
				}
				col++
			}
		}
		gemm.Parallel(prod, a, patch, s.Cout, kk, p, gemmTile, 0)
		copy(out.Data[n*s.Cout*p:(n+1)*s.Cout*p], prod)
	}
	return out, nil
}

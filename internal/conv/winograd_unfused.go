package conv

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// WinogradUnfused runs a library-style Winograd pipeline in four separate
// kernels that communicate through off-chip memory, the way non-fused
// implementations (and the cuDNN Winograd path the paper compares against)
// are structured:
//
//  1. filter transform:  U[pos][k][c]   = (G·g·Gᵀ)          (global write)
//  2. input transform:   V[pos][c][t]   = (Bᵀ·d·B)          (global write)
//  3. batched GEMM:      M[pos]         = U[pos] · V[pos]    (global write)
//  4. output transform:  Y              = Aᵀ·M·A             (global write)
//
// Every stage re-reads its operands from off-chip memory, which is exactly
// the traffic the fused dataflow avoids.
func WinogradUnfused(arch memsim.Arch, s shapes.ConvShape, e int, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	return winogradUnfused(arch, s, e, input, kernels)
}

// WinogradUnfusedDry returns WinogradUnfused's counts and simulated time
// without computing values.
func WinogradUnfusedDry(arch memsim.Arch, s shapes.ConvShape, e int) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return winogradUnfused(arch, s, e, nil, nil)
}

func winogradUnfused(arch memsim.Arch, s shapes.ConvShape, e int, input, kernels *tensor.Tensor) (*Result, error) {
	if !s.WinogradOK() {
		return nil, fmt.Errorf("conv: %v does not admit Winograd", s)
	}
	if e < 2 {
		return nil, fmt.Errorf("conv: winograd e=%d < 2", e)
	}
	r := s.Hker
	alpha := e + r - 1
	a2 := alpha * alpha
	hout, wout := s.Hout(), s.Wout()
	tilesH := (hout + e - 1) / e
	tilesW := (wout + e - 1) / e
	tiles := tilesH * tilesW // per image

	// Phase 1: filter transform.
	var p1 memsim.Counts
	p1.GlobalLoads = int64(r*r) * int64(s.Cin) * int64(s.Cout)
	p1.GlobalStores = int64(a2) * int64(s.Cin) * int64(s.Cout)
	p1.Flops = int64(2*(alpha*r*r+alpha*alpha*r)) * int64(s.Cin) * int64(s.Cout)
	l1 := memsim.Launch{Blocks: max(1, s.Cin*s.Cout/64), ThreadsPerBlock: 64, SharedPerBlock: a2 + r*r,
		BandwidthEff: 0.9}

	// Phase 2: input transform. Each tile is gathered independently with
	// its halo — the overlap re-reads are the unfused penalty.
	var p2 memsim.Counts
	p2.GlobalLoads = int64(a2) * int64(tiles) * int64(s.Cin) * int64(s.Batch)
	p2.GlobalStores = int64(a2) * int64(tiles) * int64(s.Cin) * int64(s.Batch)
	p2.Flops = int64(4*alpha*alpha*alpha) * int64(tiles) * int64(s.Cin) * int64(s.Batch)
	// Tiles are gathered with their halos and scattered position-major into
	// V: short strided segments on both sides, well below peak bandwidth.
	l2 := memsim.Launch{Blocks: max(1, tiles*s.Cin*s.Batch/64), ThreadsPerBlock: 64, SharedPerBlock: 2 * a2,
		BandwidthEff: 0.55}

	// Phase 3: α² batched GEMMs of (Cout×Cin)·(Cin×tiles).
	g := gemmPhase(s.Cout, s.Cin, tiles*s.Batch)
	g.counts.GlobalLoads *= int64(a2)
	g.counts.GlobalStores *= int64(a2)
	g.counts.SharedLoads *= int64(a2)
	g.counts.SharedStores *= int64(a2)
	g.counts.Flops *= int64(a2)
	g.launch.Blocks *= a2

	// Phase 4: output transform.
	var p4 memsim.Counts
	p4.GlobalLoads = int64(a2) * int64(tiles) * int64(s.Cout) * int64(s.Batch)
	p4.GlobalStores = int64(s.OutputVolume()) * int64(s.Batch)
	p4.Flops = int64(2*(e*alpha*alpha+e*e*alpha)) * int64(tiles) * int64(s.Cout) * int64(s.Batch)
	// M is gathered position-major and the e×e outputs scatter back into the
	// image: the same strided-segment penalty as the input transform.
	l4 := memsim.Launch{Blocks: max(1, tiles*s.Cout*s.Batch/64), ThreadsPerBlock: 64, SharedPerBlock: a2 + e*e,
		BandwidthEff: 0.55}

	var out *tensor.Tensor
	if input != nil {
		var err error
		out, err = winogradUnfusedCompute(s, e, input, kernels)
		if err != nil {
			return nil, err
		}
	}
	return finishPhased(arch, out, []phase{{p1, l1}, {p2, l2}, g, {p4, l4}}), nil
}

// winogradUnfusedCompute is the wet path: the four stages operate on real
// global arrays.
func winogradUnfusedCompute(s shapes.ConvShape, e int, input, kernels *tensor.Tensor) (*tensor.Tensor, error) {
	tr, err := winograd.Cached(e, s.Hker)
	if err != nil {
		return nil, fmt.Errorf("conv: %w", err)
	}
	r := s.Hker
	alpha := tr.Alpha
	a2 := alpha * alpha
	hout, wout := s.Hout(), s.Wout()
	tilesH := (hout + e - 1) / e
	tilesW := (wout + e - 1) / e
	tiles := tilesH * tilesW * s.Batch

	// Stage 1: U[pos][k][c].
	u := make([]float32, a2*s.Cout*s.Cin)
	gbuf := make([]float32, r*r)
	ubuf := make([]float32, a2)
	for k := 0; k < s.Cout; k++ {
		for c := 0; c < s.Cin; c++ {
			for p := 0; p < r; p++ {
				for q := 0; q < r; q++ {
					gbuf[p*r+q] = kernels.At(k, c, p, q)
				}
			}
			tr.FilterTransform(ubuf, gbuf)
			for pos := 0; pos < a2; pos++ {
				u[(pos*s.Cout+k)*s.Cin+c] = ubuf[pos]
			}
		}
	}

	// Stage 2: V[pos][c][t].
	v := make([]float32, a2*s.Cin*tiles)
	dbuf := make([]float32, a2)
	vbuf := make([]float32, a2)
	for n := 0; n < s.Batch; n++ {
		for ty := 0; ty < tilesH; ty++ {
			for tx := 0; tx < tilesW; tx++ {
				t := (n*tilesH+ty)*tilesW + tx
				for c := 0; c < s.Cin; c++ {
					for j := 0; j < alpha; j++ {
						for i := 0; i < alpha; i++ {
							dbuf[j*alpha+i] = input.AtPadded(n, c, ty*e+j-s.Pad, tx*e+i-s.Pad)
						}
					}
					tr.InputTransform(vbuf, dbuf)
					for pos := 0; pos < a2; pos++ {
						v[(pos*s.Cin+c)*tiles+t] = vbuf[pos]
					}
				}
			}
		}
	}

	// Stage 3: M[pos] = U[pos]·V[pos], each Cout×Cin by Cin×tiles.
	m := make([]float32, a2*s.Cout*tiles)
	for pos := 0; pos < a2; pos++ {
		gemm.Parallel(m[pos*s.Cout*tiles:(pos+1)*s.Cout*tiles],
			u[pos*s.Cout*s.Cin:(pos+1)*s.Cout*s.Cin],
			v[pos*s.Cin*tiles:(pos+1)*s.Cin*tiles],
			s.Cout, s.Cin, tiles, gemmTile, 0)
	}

	// Stage 4: Y = Aᵀ·M·A, scattered back with edge clipping.
	out := tensor.New(s.Batch, s.Cout, hout, wout)
	mbuf := make([]float32, a2)
	ybuf := make([]float32, e*e)
	for n := 0; n < s.Batch; n++ {
		for ty := 0; ty < tilesH; ty++ {
			for tx := 0; tx < tilesW; tx++ {
				t := (n*tilesH+ty)*tilesW + tx
				for k := 0; k < s.Cout; k++ {
					for pos := 0; pos < a2; pos++ {
						mbuf[pos] = m[(pos*s.Cout+k)*tiles+t]
					}
					tr.OutputTransform(ybuf, mbuf)
					for j := 0; j < e && ty*e+j < hout; j++ {
						for i := 0; i < e && tx*e+i < wout; i++ {
							out.Set(n, k, ty*e+j, tx*e+i, ybuf[j*e+i])
						}
					}
				}
			}
		}
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

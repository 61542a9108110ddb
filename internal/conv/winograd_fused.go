package conv

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// WinogradFused runs the paper's Section 5.3 Winograd dataflow. Each block
// owns an x×y×z output sub-block split into e×e sub-tiles: the Π
// accumulators — the "two temporary arrays" whose reuse φ₃ identifies as the
// bound-dominating term — stay resident in shared memory across the whole
// channel loop; per channel the block loads one halo'd input tile plus z·r²
// raw weights, transforms both on chip (at the sparse-matrix cost the
// transform matrices actually have) and accumulates Π += (G·g·Gᵀ) ⊙ (Bᵀ·d·B).
// Output tiles are produced once at the end via Aᵀ·Π·A. Off-chip traffic per
// block is Cin·x'·y' + Cin·z·r² + x·y·z, exactly Equation 22.
func WinogradFused(arch memsim.Arch, s shapes.ConvShape, cfg Config, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	if err := cfg.ValidateWinograd(s, arch); err != nil {
		return nil, err
	}
	return winogradFused(arch, s, cfg, input, kernels)
}

// DryWinogradFused returns WinogradFused's counts and simulated time without
// computing values or allocating: the Result comes back by value, counts
// from the closed-form per-axis aggregates and a cached transform. This is
// the evaluator behind every Winograd tuning measurement.
func DryWinogradFused(arch memsim.Arch, s shapes.ConvShape, cfg Config) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.ValidateWinograd(s, arch); err != nil {
		return Result{}, err
	}
	counts, err := WinogradFusedCounts(s, cfg)
	if err != nil {
		return Result{}, err
	}
	return dryResult(arch, counts, WinogradFusedLaunch(s, cfg)), nil
}

// WinogradFusedCounts returns the exact traffic of the fused Winograd main
// kernel for a (shape, config) pair. Like DirectTiledCounts, the counts
// depend only on the tile axes plus the Winograd output edge e — threads,
// Sb and layout enter through the launch, not the counts — so a memo keyed
// by (x, y, z, e) covers the whole configuration space.
func WinogradFusedCounts(s shapes.ConvShape, cfg Config) (memsim.Counts, error) {
	tr, err := winograd.Cached(cfg.WinogradE, s.Hker)
	if err != nil {
		return memsim.Counts{}, fmt.Errorf("conv: %w", err)
	}
	bx, by, bz := blockGrid(s, cfg)
	return dryWinoCounts(tr, s, cfg, bx, by, bz), nil
}

// WinogradFusedLaunch returns the launch geometry of the fused Winograd
// dataflow for a (shape, config) pair.
func WinogradFusedLaunch(s shapes.ConvShape, cfg Config) memsim.Launch {
	bx, by, bz := blockGrid(s, cfg)
	return memsim.Launch{
		Blocks:          bx * by * bz * s.Batch,
		ThreadsPerBlock: cfg.Threads(),
		SharedPerBlock:  cfg.SharedPerBlock,
		BandwidthEff:    layoutEff(cfg.Layout),
	}
}

func winogradFused(arch memsim.Arch, s shapes.ConvShape, cfg Config, input, kernels *tensor.Tensor) (*Result, error) {
	tr, err := winograd.Cached(cfg.WinogradE, s.Hker)
	if err != nil {
		return nil, fmt.Errorf("conv: %w", err)
	}
	hout, wout := s.Hout(), s.Wout()
	bx, by, bz := blockGrid(s, cfg)
	mainLaunch := WinogradFusedLaunch(s, cfg)

	out := tensor.New(s.Batch, s.Cout, hout, wout)
	ctr := &memsim.Counter{}
	type blockID struct{ n, ix, iy, iz int }
	work := make(chan blockID, 64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks := getScratch(ctr, cfg.SharedPerBlock)
			defer putScratch(ks)
			for b := range work {
				runWinogradBlock(ks, tr, s, cfg, input, kernels, out, b.n, b.ix, b.iy, b.iz)
			}
		}()
	}
	for n := 0; n < s.Batch; n++ {
		for iz := 0; iz < bz; iz++ {
			for iy := 0; iy < by; iy++ {
				for ix := 0; ix < bx; ix++ {
					work <- blockID{n, ix, iy, iz}
				}
			}
		}
	}
	close(work)
	wg.Wait()
	return finishPhased(arch, out, []phase{{ctr.Snapshot(), mainLaunch}}), nil
}

// dryWinoCounts computes the exact traffic of the fused Winograd main kernel
// from per-axis aggregates, mirroring runWinogradBlock's counting (which is
// separable across the block grid). Tests pin dry == wet.
func dryWinoCounts(tr *winograd.Transform, s shapes.ConvShape, cfg Config, bx, by, bz int) memsim.Counts {
	e := cfg.WinogradE
	r := s.Hker
	alpha := e + r - 1
	a2 := int64(alpha * alpha)
	inOps := int64(tr.OpsInput())
	filterOps := int64(tr.OpsFilter())
	outOps := int64(tr.OpsOutput())

	var sumValidW, sumValidH, sumXX, sumYY, sumZZ, sumSTX, sumSTY, sumXP, sumYP int64
	for ix := 0; ix < bx; ix++ {
		x0 := ix * cfg.TileX
		xx := min(cfg.TileX, s.Wout()-x0)
		stx := (xx + e - 1) / e
		xp := stx*e + r - 1
		sumXX += int64(xx)
		sumSTX += int64(stx)
		sumXP += int64(xp)
		sumValidW += int64(clippedLen(x0-s.Pad, xp, s.Win))
	}
	for iy := 0; iy < by; iy++ {
		y0 := iy * cfg.TileY
		yy := min(cfg.TileY, s.Hout()-y0)
		sty := (yy + e - 1) / e
		yp := sty*e + r - 1
		sumYY += int64(yy)
		sumSTY += int64(sty)
		sumYP += int64(yp)
		sumValidH += int64(clippedLen(y0-s.Pad, yp, s.Hin))
	}
	for iz := 0; iz < bz; iz++ {
		sumZZ += int64(min(cfg.TileZ, s.Cout-iz*cfg.TileZ))
	}
	cin := int64(s.Cin)
	batch := int64(s.Batch)
	r2 := int64(r * r)
	bzf := int64(bz)
	bxy := int64(bx) * int64(by)
	subsAll := sumSTX * sumSTY        // Σ over (ix,iy) of stx·sty
	zzSubs := sumSTX * sumSTY * sumZZ // Σ over blocks of zz·subs
	vol := sumXX * sumYY * sumZZ      // Σ over blocks of xx·yy·zz

	var c memsim.Counts
	c.GlobalLoads = batch * cin * (sumValidW*sumValidH*bzf + r2*sumZZ*bxy)
	c.GlobalStores = batch * vol
	c.Flops = batch * (cin*(subsAll*bzf*inOps+sumZZ*bxy*filterOps+zzSubs*2*a2) + zzSubs*outOps)
	c.SharedLoads = batch * (cin*(subsAll*bzf*inOps+sumZZ*bxy*filterOps+zzSubs*3*a2) + zzSubs*outOps + vol)
	c.SharedStores = batch * cin * (sumXP*sumYP*bzf + subsAll*bzf*a2 + r2*sumZZ*bxy + zzSubs*a2)
	return c
}

// runWinogradBlock updates one x×y×z output sub-block, counting as it
// stages: raw weights arrive from off-chip memory and both transforms run on
// chip at their sparse cost. The small per-block tile temporaries come from
// the worker's pooled scratch instead of per-call allocations.
func runWinogradBlock(ks *kernelScratch, tr *winograd.Transform, s shapes.ConvShape, cfg Config,
	input, kernels, out *tensor.Tensor, n, ix, iy, iz int) {

	blk := ks.blk
	e := cfg.WinogradE
	r := s.Hker
	alpha := e + r - 1
	a2 := alpha * alpha
	hout, wout := s.Hout(), s.Wout()

	x0, y0, z0 := ix*cfg.TileX, iy*cfg.TileY, iz*cfg.TileZ
	xx := min(cfg.TileX, wout-x0)
	yy := min(cfg.TileY, hout-y0)
	zz := min(cfg.TileZ, s.Cout-z0)
	stx := (xx + e - 1) / e // sub-tile grid of the clipped block
	sty := (yy + e - 1) / e
	subs := stx * sty

	// Input tile footprint, stride 1: covers sub-tile grid halo.
	xp := stx*e + r - 1
	yp := sty*e + r - 1
	ox := x0 - s.Pad
	oy := y0 - s.Pad
	validW := clippedLen(ox, xp, s.Win)
	validH := clippedLen(oy, yp, s.Hin)

	blk.Reset()
	pi := blk.Alloc(subs * zz * a2) // Π accumulators
	blk.Alloc(subs * zz * a2)       // Λ scratch (paper's second temp array)
	inTile := blk.Alloc(xp * yp)
	vbuf := blk.Alloc(subs * a2)
	ubuf := blk.Alloc(a2)
	wbuf := blk.Alloc(r * r)
	for i := range pi {
		pi[i] = 0
	}

	ctr := blkCounter(blk)
	dtile := ks.buf(bufDTile, a2)
	for c := 0; c < s.Cin; c++ {
		// Stage the channel-c halo'd input tile once; every sub-tile reads
		// from shared memory (input reuse across sub-tiles and kernels).
		ctr.AddGlobalLoads(validW * validH)
		ctr.AddSharedStores(xp * yp)
		ctr.AddFlops(subs * tr.OpsInput())
		ctr.AddSharedLoads(subs * tr.OpsInput()) // operand traffic of transforms
		ctr.AddSharedStores(subs * a2)
		// Per kernel: r² raw weights from off-chip, the on-chip filter
		// transform, then the fused multiply-accumulate into Π for every
		// sub-tile.
		ctr.AddGlobalLoads(zz * r * r)
		ctr.AddSharedStores(zz * r * r)
		ctr.AddFlops(zz * tr.OpsFilter())
		ctr.AddSharedLoads(zz * tr.OpsFilter())
		ctr.AddFlops(zz * subs * 2 * a2)
		ctr.AddSharedLoads(zz * subs * 3 * a2)
		ctr.AddSharedStores(zz * subs * a2)
		stageInputTile(inTile, input, n, c, oy, ox, xp, yp)
		for t := 0; t < subs; t++ {
			tx, ty := t%stx, t/stx
			for j := 0; j < alpha; j++ {
				copy(dtile[j*alpha:(j+1)*alpha], inTile[(ty*e+j)*xp+tx*e:(ty*e+j)*xp+tx*e+alpha])
			}
			tr.InputTransform(vbuf[t*a2:(t+1)*a2], dtile)
		}
		for k := 0; k < zz; k++ {
			stageKernelSlice(wbuf, kernels, z0+k, 1, c)
			tr.FilterTransform(ubuf, wbuf)
			for t := 0; t < subs; t++ {
				acc := pi[(k*subs+t)*a2 : (k*subs+t+1)*a2]
				v := vbuf[t*a2 : (t+1)*a2]
				for i, uv := range ubuf {
					acc[i] += uv * v[i]
				}
			}
		}
	}

	// Output transforms and the single write-back of the sub-block.
	ctr.AddFlops(zz * subs * tr.OpsOutput())
	ctr.AddSharedLoads(zz * subs * tr.OpsOutput())
	ctr.AddGlobalStores(xx * yy * zz)
	ctr.AddSharedLoads(xx * yy * zz)
	ybuf := ks.buf(bufYTile, e*e)
	nchw := out.Lay == tensor.NCHW
	for k := 0; k < zz; k++ {
		obase := ((n*out.C + z0 + k) * out.H) * out.W
		for t := 0; t < subs; t++ {
			tx, ty := t%stx, t/stx
			tr.OutputTransform(ybuf, pi[(k*subs+t)*a2:(k*subs+t+1)*a2])
			// The clipped sub-tile: rows/cols beyond the block's clipped
			// extent (and therefore beyond the output) are dropped.
			nj := min(e, yy-ty*e)
			ni := min(e, xx-tx*e)
			w0 := x0 + tx*e
			for j := 0; j < nj; j++ {
				oh := y0 + ty*e + j
				if nchw {
					copy(out.Data[obase+oh*out.W+w0:obase+oh*out.W+w0+ni], ybuf[j*e:j*e+ni])
				} else {
					for i := 0; i < ni; i++ {
						out.Set(n, z0+k, oh, w0+i, ybuf[j*e+i])
					}
				}
			}
		}
	}
}

// DefaultWinogradConfig derives an untuned fused-Winograd configuration from
// the Section 5.3 budget 2·α²/e²·xyz ≈ S/Np and the optimality condition
// xy = r²z, where Np keeps at least two blocks per SM busy.
func DefaultWinogradConfig(arch memsim.Arch, s shapes.ConvShape, e int) Config {
	sb := arch.MaxSharedPerBlock()
	cfg := Config{SharedPerBlock: sb, Layout: tensor.NCHW, WinogradE: e}
	totalOut := s.OutputVolume() * s.Batch
	volTarget := 1 << 30
	if byPar := totalOut / (2 * arch.NumSMs); byPar >= 1 {
		volTarget = byPar
	}
	for z := min(s.Cout, 256); z >= 1; z-- {
		xy := s.Hker * s.Hker * z
		side := e
		for side*side < xy {
			side += e // keep divisible by e
		}
		c := cfg
		c.TileX = min(side, alignDown(s.Wout(), e, side))
		c.TileY = min(side, alignDown(s.Hout(), e, side))
		c.TileZ = z
		if c.TileX < e || c.TileY < e {
			continue
		}
		if c.TileX*c.TileY*c.TileZ <= volTarget && WinogradSharedNeed(s, c) <= sb {
			cfg = c
			break
		}
	}
	if cfg.TileX == 0 {
		cfg.TileX, cfg.TileY, cfg.TileZ = e, e, 1
	}
	cfg.ThreadsX = min(cfg.TileX, 8)
	cfg.ThreadsY = min(cfg.TileY, 8)
	cfg.ThreadsZ = min(cfg.TileZ, 1024/(cfg.ThreadsX*cfg.ThreadsY))
	if cfg.ThreadsZ < 1 {
		cfg.ThreadsZ = 1
	}
	return cfg
}

// alignDown returns the largest multiple of e that is <= limit and <= want,
// but at least e.
func alignDown(limit, e, want int) int {
	v := min(limit, want)
	v -= v % e
	if v < e {
		v = e
	}
	return v
}

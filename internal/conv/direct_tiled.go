package conv

import (
	"runtime"
	"sync"

	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// DirectTiled runs the paper's near I/O-optimal direct-convolution dataflow
// (Section 5.2). Each simulated thread block owns an x×y×z output sub-block
// whose partial sums stay resident in shared memory for the whole
// computation; the required inputs arrive as an x'×y' tile at one channel at
// a time (the α=1 channel-sliding schedule), together with the matching z
// kernel slices. Inputs and weights are therefore loaded from off-chip
// memory exactly once per block and outputs are written exactly once — the
// structure whose I/O volume Equation 21 models.
func DirectTiled(arch memsim.Arch, s shapes.ConvShape, cfg Config, input, kernels *tensor.Tensor) (*Result, error) {
	if err := checkOperands(s, input, kernels); err != nil {
		return nil, err
	}
	if err := cfg.ValidateDirect(s, arch); err != nil {
		return nil, err
	}
	return directTiled(arch, s, cfg, input, kernels)
}

// DryDirectTiled returns DirectTiled's exact counts and simulated time
// without touching data (Output is nil) or the heap: the Result comes back
// by value, counts from the closed-form per-axis aggregates. Tests pin its
// counts to the wet path's. This is the evaluator behind every
// direct-dataflow tuning measurement.
func DryDirectTiled(arch memsim.Arch, s shapes.ConvShape, cfg Config) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.ValidateDirect(s, arch); err != nil {
		return Result{}, err
	}
	counts := DirectTiledCounts(s, cfg)
	l := DirectTiledLaunch(s, cfg)
	return dryResult(arch, counts, l), nil
}

// dryResult finishes a single-phase dry evaluation, running the time model
// once.
func dryResult(arch memsim.Arch, counts memsim.Counts, l memsim.Launch) Result {
	return Result{Counts: counts, Launch: l, Seconds: arch.Time(counts, l)}
}

// blockGrid returns the block-grid extents of the tiled dataflows: output
// extents ceil-divided by the tile. Counts, launch geometry and the wet
// executors' fan-out loops must all agree on this derivation.
func blockGrid(s shapes.ConvShape, cfg Config) (bx, by, bz int) {
	bx = (s.Wout() + cfg.TileX - 1) / cfg.TileX
	by = (s.Hout() + cfg.TileY - 1) / cfg.TileY
	bz = (s.Cout + cfg.TileZ - 1) / cfg.TileZ
	return bx, by, bz
}

// DirectTiledCounts returns the exact traffic of the tiled dataflow for a
// (shape, config) pair. The counts are separable across the block grid, so
// exact totals come from per-axis sums (O(dims) instead of O(blocks·Cin));
// they depend only on the tile axes (TileX/Y/Z), never on threads, Sb or
// layout — which is what lets the tuner's memo share one entry across every
// thread/Sb/layout variant of a tile. The wet path produces identical
// counts; tests pin the two together.
func DirectTiledCounts(s shapes.ConvShape, cfg Config) memsim.Counts {
	bx, by, bz := blockGrid(s, cfg)
	return dryDirectCounts(s, cfg, bx, by, bz)
}

// DirectTiledLaunch returns the launch geometry of the tiled dataflow for a
// (shape, config) pair.
func DirectTiledLaunch(s shapes.ConvShape, cfg Config) memsim.Launch {
	bx, by, bz := blockGrid(s, cfg)
	return memsim.Launch{
		Blocks:          bx * by * bz * s.Batch,
		ThreadsPerBlock: cfg.Threads(),
		SharedPerBlock:  cfg.SharedPerBlock,
		BandwidthEff:    layoutEff(cfg.Layout),
	}
}

func directTiled(arch memsim.Arch, s shapes.ConvShape, cfg Config, input, kernels *tensor.Tensor) (*Result, error) {
	hout, wout := s.Hout(), s.Wout()
	bx, by, bz := blockGrid(s, cfg)
	l := DirectTiledLaunch(s, cfg)

	out := tensor.New(s.Batch, s.Cout, hout, wout)
	ctr := &memsim.Counter{}

	// Each simulated block is independent; fan them across CPU workers,
	// each drawing its staging buffers from the pooled scratch arena.
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
				runDirectBlock(ks.blk, s, cfg, input, kernels, out, b.n, b.ix, b.iy, b.iz)
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
	return finishPhased(arch, out, []phase{{ctr.Snapshot(), l}}), nil
}

// dryDirectCounts computes the exact traffic of the tiled dataflow from
// per-axis aggregates. For each block the wet path counts, per channel:
// validW·validH input-tile loads, Hker·Wker·zz weight loads, 2·macs flops —
// all products of per-axis quantities, so sums over the block grid factor.
func dryDirectCounts(s shapes.ConvShape, cfg Config, bx, by, bz int) memsim.Counts {
	var sumValidW, sumValidH, sumXX, sumYY, sumZZ int64
	for ix := 0; ix < bx; ix++ {
		x0 := ix * cfg.TileX
		xx := min(cfg.TileX, s.Wout()-x0)
		xp := s.Strid*xx + s.Wker - s.Strid
		sumXX += int64(xx)
		sumValidW += int64(clippedLen(x0*s.Strid-s.Pad, xp, s.Win))
	}
	for iy := 0; iy < by; iy++ {
		y0 := iy * cfg.TileY
		yy := min(cfg.TileY, s.Hout()-y0)
		yp := s.Strid*yy + s.Hker - s.Strid
		sumYY += int64(yy)
		sumValidH += int64(clippedLen(y0*s.Strid-s.Pad, yp, s.Hin))
	}
	for iz := 0; iz < bz; iz++ {
		sumZZ += int64(min(cfg.TileZ, s.Cout-iz*cfg.TileZ))
	}
	// Per-axis halo'd (unclipped staging) sums for shared-store traffic.
	var sumXP, sumYP int64
	for ix := 0; ix < bx; ix++ {
		xx := min(cfg.TileX, s.Wout()-ix*cfg.TileX)
		sumXP += int64(s.Strid*xx + s.Wker - s.Strid)
	}
	for iy := 0; iy < by; iy++ {
		yy := min(cfg.TileY, s.Hout()-iy*cfg.TileY)
		sumYP += int64(s.Strid*yy + s.Hker - s.Strid)
	}
	// Each output channel reads only its group's Cin/G input channels, so
	// every per-channel term scales by the group-local depth (G=1 is the
	// dense case).
	cin := int64(s.Cin / s.G())
	k2 := int64(s.Hker * s.Wker)
	batch := int64(s.Batch)
	bxy := int64(bx) * int64(by)
	vol := sumXX * sumYY * sumZZ // Σ blocks xx·yy·zz

	var c memsim.Counts
	c.GlobalLoads = batch * cin * (sumValidW*sumValidH*int64(bz) + k2*sumZZ*bxy)
	c.GlobalStores = batch * vol
	c.Flops = batch * cin * 2 * k2 * vol
	c.SharedLoads = batch * (cin*2*k2*vol + vol)
	c.SharedStores = batch * (cin*(sumXP*sumYP*int64(bz)+k2*sumZZ*bxy) + cin*vol)
	return c
}

// runDirectBlock updates one x×y×z output sub-block, counting exactly what
// dryDirectCounts models (tests pin the two together). The arithmetic runs
// as row-wise multiply-accumulate passes: one pass over a contiguous output
// row per (kernel, output-row, tap), which keeps the inner loop
// bounds-check-free and the operands streaming with unit stride.
func runDirectBlock(blk *memsim.Block, s shapes.ConvShape, cfg Config,
	input, kernels, out *tensor.Tensor, n, ix, iy, iz int) {

	hout, wout := s.Hout(), s.Wout()
	x0, y0, z0 := ix*cfg.TileX, iy*cfg.TileY, iz*cfg.TileZ
	xx := min(cfg.TileX, wout-x0)
	yy := min(cfg.TileY, hout-y0)
	zz := min(cfg.TileZ, s.Cout-z0)

	// Halo'd input tile footprint for the clipped output tile.
	xp := s.Strid*xx + s.Wker - s.Strid
	yp := s.Strid*yy + s.Hker - s.Strid
	// Origin of the input tile in (possibly padded) input coordinates.
	ox := x0*s.Strid - s.Pad
	oy := y0*s.Strid - s.Pad
	// Valid (in-bounds) portion actually loaded from off-chip memory.
	validW := clippedLen(ox, xp, s.Win)
	validH := clippedLen(oy, yp, s.Hin)

	blk.Reset()
	outTile := blk.Alloc(xx * yy * zz)
	inTile := blk.Alloc(xp * yp)
	wTile := blk.Alloc(s.Hker * s.Wker * zz)
	for i := range outTile {
		outTile[i] = 0
	}

	ctr := blkCounter(blk)
	for c := 0; c < s.Cin; c++ {
		// Stage the channel-c input tile (paper's α=1 slide) and weights.
		ctr.AddGlobalLoads(validW * validH)
		ctr.AddSharedStores(xp * yp)
		ctr.AddGlobalLoads(s.Hker * s.Wker * zz)
		ctr.AddSharedStores(s.Hker * s.Wker * zz)
		macs := xx * yy * zz * s.Hker * s.Wker
		ctr.AddFlops(2 * macs)
		ctr.AddSharedLoads(2 * macs)
		ctr.AddSharedStores(xx * yy * zz)
		stageInputTile(inTile, input, n, c, oy, ox, xp, yp)
		stageKernelSlice(wTile, kernels, z0, zz, c)
		for k := 0; k < zz; k++ {
			for j := 0; j < yy; j++ {
				orow := outTile[(k*yy+j)*xx : (k*yy+j+1)*xx]
				for p := 0; p < s.Hker; p++ {
					irow := inTile[(j*s.Strid+p)*xp:]
					wbase := (k*s.Hker + p) * s.Wker
					switch {
					case s.Strid == 1 && s.Wker == 3:
						// Tap-fused row kernel: one pass per output row
						// with the three taps in registers.
						w0, w1, w2 := wTile[wbase], wTile[wbase+1], wTile[wbase+2]
						src := irow[:xx+2]
						for i := range orow {
							orow[i] += w0*src[i] + w1*src[i+1] + w2*src[i+2]
						}
					case s.Strid == 1 && s.Wker == 5:
						w0, w1, w2, w3, w4 := wTile[wbase], wTile[wbase+1], wTile[wbase+2], wTile[wbase+3], wTile[wbase+4]
						src := irow[:xx+4]
						for i := range orow {
							orow[i] += w0*src[i] + w1*src[i+1] + w2*src[i+2] + w3*src[i+3] + w4*src[i+4]
						}
					case s.Strid == 1:
						for q, w := range wTile[wbase : wbase+s.Wker] {
							src := irow[q : q+xx]
							for i, v := range src {
								orow[i] += w * v
							}
						}
					default:
						for q, w := range wTile[wbase : wbase+s.Wker] {
							for i := range orow {
								orow[i] += w * irow[i*s.Strid+q]
							}
						}
					}
				}
			}
		}
	}

	// Write the finished sub-block back exactly once.
	ctr.AddGlobalStores(xx * yy * zz)
	ctr.AddSharedLoads(xx * yy * zz)
	if out.Lay == tensor.NCHW {
		for k := 0; k < zz; k++ {
			obase := ((n*out.C+z0+k)*out.H + y0) * out.W
			for j := 0; j < yy; j++ {
				copy(out.Data[obase+j*out.W+x0:obase+j*out.W+x0+xx], outTile[(k*yy+j)*xx:(k*yy+j+1)*xx])
			}
		}
	} else {
		for k := 0; k < zz; k++ {
			for j := 0; j < yy; j++ {
				for i := 0; i < xx; i++ {
					out.Set(n, z0+k, y0+j, x0+i, outTile[(k*yy+j)*xx+i])
				}
			}
		}
	}
}

// DefaultDirectConfig derives the untuned Section 5.2 configuration: the
// output tile satisfies the optimality condition x·y = R·z with volume
// x·y·z ≈ S/Np — the per-processor share of on-chip memory, where Np is the
// number of blocks needed to keep every SM busy (at least two blocks per
// SM). It is the starting point of the tuner and of the quickstart example.
func DefaultDirectConfig(arch memsim.Arch, s shapes.ConvShape) Config {
	sb := arch.MaxSharedPerBlock()
	cfg := Config{SharedPerBlock: sb, Layout: tensor.NCHW}
	totalOut := s.OutputVolume() * s.Batch
	// Volume target: whichever is smaller of "fill the shared memory" and
	// "leave enough blocks to saturate the device".
	volTarget := sb * 3 / 4
	if byPar := totalOut / (2 * arch.NumSMs); byPar >= 1 && byPar < volTarget {
		volTarget = byPar
	}
	best := Config{}
	cpg := s.Cout / s.G() // group-local z extent a tile must divide
	for z := min(cpg, 512); z >= 1; z-- {
		if s.G() > 1 && cpg%z != 0 {
			continue
		}
		xy := int(s.R() * float64(z))
		side := 1
		for side*side < xy {
			side++
		}
		c := cfg
		c.TileX = min(side, s.Wout())
		c.TileY = min(side, s.Hout())
		c.TileZ = z
		if c.TileX*c.TileY*c.TileZ <= volTarget && DirectSharedNeed(s, c) <= sb {
			best = c
			break
		}
	}
	if best.TileX == 0 {
		best = cfg
		best.TileX, best.TileY, best.TileZ = 1, 1, 1
	}
	best.ThreadsX = min(best.TileX, 16)
	best.ThreadsY = min(best.TileY, 16)
	best.ThreadsZ = min(best.TileZ, 1024/(best.ThreadsX*best.ThreadsY))
	if best.ThreadsZ < 1 {
		best.ThreadsZ = 1
	}
	return best
}

// blkCounter exposes the counter a Block charges to; small helper so the
// dry/wet paths share bulk counting.
func blkCounter(b *memsim.Block) *memsim.Counter { return b.Counter() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

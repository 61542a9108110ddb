package conv

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// This file adds the tunable form of the FFT convolution. The four-phase
// pipeline of fftconv.go stays, but phase 3 — the frequency-domain
// multiply-accumulate, the only phase whose traffic and launch geometry a
// schedule can change — becomes configurable: TileX×TileY tiles the padded
// frequency grid and TileZ tiles the output channels of one group, so one
// block accumulates TileZ spectra over a TileX·TileY bin window. Phases 1, 2
// and 4 (the transforms) are config-independent and their cost is computed
// once per shape. Grouped shapes multiply only within their group's Cin/G
// input spectra.

// FFTGrid returns the padded power-of-two frequency grid (lh, lw) of the FFT
// convolution for a shape; the tuner's phase-3 tile axes are divisors of it.
func FFTGrid(s shapes.ConvShape) (lh, lw int) {
	return fft.NextPow2(s.Hin + 2*s.Pad), fft.NextPow2(s.Win + 2*s.Pad)
}

// FFTSharedNeed returns the shared-memory floats the tiled phase-3 kernel
// needs: the complex accumulator window (2·F·z), one staged complex kernel
// window per resident z (2·F·z), and one double-buffered complex input
// window (2·2·F), where F = TileX·TileY frequency bins.
func FFTSharedNeed(c Config) int {
	f := c.TileX * c.TileY
	return 4*f*c.TileZ + 4*f
}

// ValidateFFT checks a config against a shape and architecture for the tiled
// FFT dataflow. The tile axes must divide the frequency grid exactly (the
// grid is a power of two, so divisors are cheap to enumerate) and TileZ must
// tile the output channels of one group.
func (c Config) ValidateFFT(s shapes.ConvShape, arch memsim.Arch) error {
	lh, lw := FFTGrid(s)
	cpg := s.Cout / s.G()
	switch {
	case c.TileX < 1 || c.TileY < 1 || c.TileZ < 1:
		return fmt.Errorf("conv: tile %dx%dx%d has empty dimension", c.TileX, c.TileY, c.TileZ)
	case c.TileX > lw || lw%c.TileX != 0 || c.TileY > lh || lh%c.TileY != 0:
		return fmt.Errorf("conv: fft tile %dx%d does not divide the %dx%d frequency grid",
			c.TileX, c.TileY, lw, lh)
	case c.TileZ > cpg || cpg%c.TileZ != 0:
		return fmt.Errorf("conv: fft tile z=%d does not tile the %d channels of a group", c.TileZ, cpg)
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
	if need := FFTSharedNeed(c); need > c.SharedPerBlock {
		return fmt.Errorf("conv: fft tiles need %d floats of shared memory, Sb=%d", need, c.SharedPerBlock)
	}
	return nil
}

// fftFixedPhases returns the config-independent transform phases (1, 2, 4)
// of the FFT convolution, group-aware: each of the Cout kernel planes spans
// only its group's Cin/G channels.
func fftFixedPhases(s shapes.ConvShape) []phase {
	lh, lw := FFTGrid(s)
	grid := lh * lw
	fft1D := int64(fft.FlopsPerTransform(lh))*int64(lw) + int64(fft.FlopsPerTransform(lw))*int64(lh)

	batch := int64(s.Batch)
	cin, cout := int64(s.Cin), int64(s.Cout)
	cinPerG := int64(s.Cin / s.G())
	gridF := int64(grid)
	stage := min(2*grid, 8192)

	var p1 memsim.Counts
	p1.GlobalLoads = batch * cin * int64(s.Hin*s.Win)
	p1.GlobalStores = batch * cin * gridF * 2
	p1.Flops = batch * cin * fft1D
	l1 := memsim.Launch{Blocks: max(1, int(batch*cin)), ThreadsPerBlock: 128,
		SharedPerBlock: stage, BandwidthEff: 0.8}

	var p2 memsim.Counts
	p2.GlobalLoads = cout * cinPerG * int64(s.Hker*s.Wker)
	p2.GlobalStores = cout * cinPerG * gridF * 2
	p2.Flops = cout * cinPerG * fft1D
	l2 := memsim.Launch{Blocks: max(1, int(cout*cinPerG)), ThreadsPerBlock: 128,
		SharedPerBlock: stage, BandwidthEff: 0.8}

	var p4 memsim.Counts
	p4.GlobalLoads = batch * cout * gridF * 2
	p4.GlobalStores = batch * int64(s.OutputVolume())
	p4.Flops = batch * cout * fft1D
	l4 := memsim.Launch{Blocks: max(1, int(batch*cout)), ThreadsPerBlock: 128,
		SharedPerBlock: stage, BandwidthEff: 0.8}

	return []phase{{p1, l1}, {p2, l2}, {p4, l4}}
}

// FFTFixedCost returns the simulated seconds of the FFT convolution's
// config-independent phases (the forward and inverse transforms). The
// tuner's memoized measurer computes this once per space.
func FFTFixedCost(arch memsim.Arch, s shapes.ConvShape) (seconds float64) {
	for _, p := range fftFixedPhases(s) {
		seconds += arch.Time(p.counts, p.launch)
	}
	return seconds
}

// FFTTiledCounts returns the exact phase-3 traffic of the tiled FFT dataflow.
// Each block owns a TileX·TileY bin window of TileZ output spectra of one
// (image, group): per group-local input channel it loads its complex input
// window once (amortized over the TileZ outputs of the block) and the TileZ
// matching kernel windows, and finally stores the accumulated spectra. At
// TileZ=1 this degenerates to the untiled baseline's 4·N·Cout·Cin·grid loads.
func FFTTiledCounts(s shapes.ConvShape, cfg Config) memsim.Counts {
	lh, lw := FFTGrid(s)
	gridF := int64(lh * lw)
	batch := int64(s.Batch)
	cout := int64(s.Cout)
	cinPerG := int64(s.Cin / s.G())
	z := int64(cfg.TileZ)

	var c memsim.Counts
	// 2·F floats per complex window; the input window is shared by the z
	// spectra of the block (first term, amortized), the kernel windows are
	// per output channel (second term).
	c.GlobalLoads = batch*cout*cinPerG*gridF*2/z + batch*cout*cinPerG*gridF*2
	c.GlobalStores = batch * cout * gridF * 2
	c.Flops = batch * cout * cinPerG * gridF * 8 // complex MAC = 8 real flops
	c.SharedStores = c.GlobalLoads + c.GlobalStores
	c.SharedLoads = c.Flops
	return c
}

// FFTTiledLaunch returns the phase-3 launch geometry of the tiled FFT
// dataflow for a (shape, config) pair.
func FFTTiledLaunch(s shapes.ConvShape, cfg Config) memsim.Launch {
	lh, lw := FFTGrid(s)
	f := cfg.TileX * cfg.TileY
	binBlocks := lh * lw / f
	zBlocks := s.Cout / cfg.TileZ // TileZ tiles Cout/G, so this covers all groups
	return memsim.Launch{
		Blocks:          s.Batch * zBlocks * binBlocks,
		ThreadsPerBlock: cfg.Threads(),
		SharedPerBlock:  cfg.SharedPerBlock,
		BandwidthEff:    0.9, // contiguous spectrum streaming, like the baseline
	}
}

// DryFFTTiled evaluates the tiled FFT convolution without touching data: the
// three fixed transform phases plus the configured phase-3 kernel. This is
// the evaluator behind every FFT-kind tuning measurement.
func DryFFTTiled(arch memsim.Arch, s shapes.ConvShape, cfg Config) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.ValidateFFT(s, arch); err != nil {
		return Result{}, err
	}
	phases := fftFixedPhases(s)
	phases = append(phases, phase{FFTTiledCounts(s, cfg), FFTTiledLaunch(s, cfg)})
	return *finishPhased(arch, nil, phases), nil
}

// DefaultFFTConfig derives an untuned tiled-FFT configuration: a whole
// frequency-grid row per block and as many resident output spectra as the
// shared memory allows.
func DefaultFFTConfig(arch memsim.Arch, s shapes.ConvShape) Config {
	_, lw := FFTGrid(s)
	sb := arch.MaxSharedPerBlock()
	cpg := s.Cout / s.G()
	cfg := Config{TileX: lw, TileY: 1, TileZ: 1, SharedPerBlock: sb, Layout: tensor.NCHW}
	for z := cpg; z >= 1; z-- {
		if cpg%z != 0 {
			continue
		}
		cfg.TileZ = z
		if FFTSharedNeed(cfg) <= sb {
			break
		}
	}
	for FFTSharedNeed(cfg) > sb && cfg.TileX > 1 {
		cfg.TileX /= 2
	}
	cfg.ThreadsX = min(cfg.TileX, 256)
	cfg.ThreadsY = 1
	cfg.ThreadsZ = min(cfg.TileZ, 1024/cfg.ThreadsX)
	if cfg.ThreadsZ < 1 {
		cfg.ThreadsZ = 1
	}
	return cfg
}

package autotune

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// This file is the one place that knows what a dataflow kind is. A kind is
// a row of kindTable — the torchinductor idiom of candidate kernels as
// values in a list, each carrying its own requirements — and every other
// file of the engine reads the row a Space or MemoMeasure resolved at
// construction; none of them switches on the kind. The row's contents are
// the internal/conv primitives themselves, referenced, not copied. Adding a
// dataflow is one row plus its conv primitives (ARCHITECTURE.md, "Dataflow
// kinds", has the checklist).

// Kind selects which dataflow template a space tunes.
type Kind uint8

const (
	// Direct tunes the Section 5.2 direct-convolution dataflow.
	Direct Kind = iota
	// Winograd tunes the Section 5.3 fused Winograd dataflow.
	Winograd
	// FFT tunes the frequency-domain pipeline's multiply-accumulate phase
	// (the transforms are config-independent and costed exactly).
	FFT
	// ImplicitGEMM tunes the library-style fused-gather dataflow: more
	// off-chip traffic than Direct but a smaller shared footprint.
	ImplicitGEMM
)

// kindSpec is one dataflow kind.
type kindSpec struct {
	// name is the wire, cache-key and CLI name.
	name string

	// admits gates NewSpace: a shape the dataflow cannot compute has no
	// space (nil: every valid shape has one). offered is the network
	// sweep's candidate policy — cheap static gating in front of the shared
	// cache: a requested kind is searched for a layer only where it can win
	// (nil: wherever it is requested).
	admits  func(shapes.ConvShape) error
	offered func(shapes.ConvShape) bool

	// edges lists the tile-edge choices e (Config.WinogradE); {0} means the
	// dataflow has no sub-tile edge. plane is the (h, w) grid the blocks
	// tile. The x and y tile axes are the divisors of the plane, or — with
	// a sub-tile edge — e times the divisors of the rounded-up sub-tile
	// grid ceil(plane/e).
	edges   []int
	plane   func(shapes.ConvShape) (h, w int)
	layouts []tensor.Layout

	// reuse is R of the optimality condition x·y = R·z that prunes the
	// searching domain; nil when the tile has no sliding-window reuse and
	// the pruned domain is the shared-memory fit alone.
	reuse func(shapes.ConvShape) float64

	// validate, counts and launch are the decomposed evaluator MemoMeasure
	// runs (counts memoized per tile, launch rebuilt per config); validate
	// is also what makes a configuration rankable by the analytic tier.
	// sharedNeed is the staged tiles' shared-memory footprint. launchable,
	// when set, says whether launch is meaningful for a configuration off
	// the space's axes — the floor claims nothing for one that is not.
	validate   func(conv.Config, shapes.ConvShape, memsim.Arch) error
	sharedNeed func(shapes.ConvShape, conv.Config) int
	counts     func(shapes.ConvShape, conv.Config) (memsim.Counts, error)
	launch     func(shapes.ConvShape, conv.Config) memsim.Launch
	launchable func(shapes.ConvShape, conv.Config) bool

	// design is the untuned Section-5 dataflow design for tile edge e, the
	// engine's seed.
	design func(memsim.Arch, shapes.ConvShape, int) conv.Config

	// lowerBound and arith are the operands the time floor (Space.floor)
	// hands the time model in place of measured counts: the minimum off-chip
	// traffic, in elements, for tile edge e and fast memory sb, and a lower
	// bound on the tunable launch's flops for tile edge e.
	// flatArith says arith is the same for every configuration; only then
	// does it join the pruning floor as well as the tight one.
	lowerBound func(s shapes.ConvShape, e, sb int) float64
	arith      func(s shapes.ConvShape, e int) float64
	flatArith  bool

	// fixed is the exact cost of the config-independent launches that run
	// beside the tunable one (nil: the dataflow is a single launch). The
	// floor and every measurement add it as a constant.
	fixed func(memsim.Arch, shapes.ConvShape) (seconds float64)

	// emit renders the schedule body (template.go).
	emit func(scheduleWriter, shapes.ConvShape, conv.Config)

	// dry is the conv reference evaluator: what Kind.Dry — and through it
	// repro.MeasureKind and the benchmark's oracle — runs. It shares no
	// arithmetic with validate/counts/launch above, which is the oracle's
	// worth; the parity test holds the two together.
	dry func(memsim.Arch, shapes.ConvShape, conv.Config) (conv.Result, error)
}

// kindTable is indexed by Kind.
var kindTable = [...]kindSpec{
	Direct: {
		name:       "direct",
		edges:      []int{0},
		plane:      outputPlane,
		layouts:    tensor.Layouts,
		reuse:      shapes.ConvShape.R,
		validate:   conv.Config.ValidateDirect,
		sharedNeed: conv.DirectSharedNeed,
		counts:     infallible(conv.DirectTiledCounts),
		launch:     conv.DirectTiledLaunch,
		design:     anyEdge(conv.DefaultDirectConfig),
		lowerBound: directLowerBound,
		arith:      shapeFlops,
		flatArith:  true,
		emit:       emitDirect,
		dry:        conv.DryDirectTiled,
	},
	Winograd: {
		name: "winograd",
		admits: func(s shapes.ConvShape) error {
			if !s.WinogradOK() {
				return fmt.Errorf("autotune: %v does not admit Winograd", s)
			}
			return nil
		},
		// The paper's F(e×e, 3×3) dataflow.
		offered: func(s shapes.ConvShape) bool { return s.WinogradOK() && s.Hker == 3 },
		// The output tile edge e is itself a tunable (the paper: "in
		// practice e usually is chosen as 2, 3 or 4"). Tiles are whole
		// sub-tile grids, so odd output sizes (e.g. 13×13) still have tile
		// choices; the kernel clips the partial edge sub-tiles.
		edges:      []int{2, 4},
		plane:      outputPlane,
		layouts:    tensor.Layouts,
		reuse:      func(s shapes.ConvShape) float64 { return float64(s.Hker * s.Hker) },
		validate:   conv.Config.ValidateWinograd,
		sharedNeed: conv.WinogradSharedNeed,
		counts:     conv.WinogradFusedCounts,
		launch:     conv.WinogradFusedLaunch,
		launchable: func(_ shapes.ConvShape, c conv.Config) bool { return c.WinogradE >= 2 },
		design:     conv.DefaultWinogradConfig,
		lowerBound: winogradLowerBound,
		arith:      winogradFlopsFloor,
		emit:       emitWinograd,
		dry:        conv.DryWinogradFused,
	},
	FFT: {
		name: "fft",
		// Below 3×3, or strided, the transform constant cannot win.
		offered: func(s shapes.ConvShape) bool { return s.Strid == 1 && s.Hker >= 3 && s.Wker >= 3 },
		edges:   []int{0},
		// The phase-3 tile spans the padded power-of-two frequency grid, not
		// the output image. Spectra have no image layout, so the layout axis
		// collapses.
		plane:      conv.FFTGrid,
		layouts:    []tensor.Layout{tensor.NCHW},
		validate:   conv.Config.ValidateFFT,
		sharedNeed: func(_ shapes.ConvShape, c conv.Config) int { return conv.FFTSharedNeed(c) },
		counts:     infallible(conv.FFTTiledCounts),
		launch:     conv.FFTTiledLaunch,
		launchable: fftLaunchable,
		design:     anyEdge(conv.DefaultFFTConfig),
		// The phase-3 bound covers the pointwise launch alone, whose traffic
		// is spectra, and carries its own compulsory term over them. The
		// images and weights are moved by the fixed transform launches, so
		// the convolution's compulsory traffic does not bound this one.
		lowerBound: func(s shapes.ConvShape, _, sb int) float64 { return bounds.FFTPhase3LowerBound(s, sb) },
		arith:      fftPhase3Flops,
		flatArith:  true,
		fixed:      conv.FFTFixedCost,
		emit:       emitFFT,
		dry:        conv.DryFFTTiled,
	},
	ImplicitGEMM: {
		name:       "igemm",
		edges:      []int{0},
		plane:      outputPlane,
		layouts:    tensor.Layouts,
		reuse:      shapes.ConvShape.R,
		validate:   conv.Config.ValidateIGEMM,
		sharedNeed: conv.IGEMMSharedNeed,
		counts:     infallible(conv.IGEMMTiledCounts),
		launch:     conv.IGEMMTiledLaunch,
		design:     anyEdge(conv.DefaultIGEMMConfig),
		// Implicit-GEMM shares the direct convolution DAG, so Theorem 4.12
		// and the compulsory term bound both (group-aware through
		// KernelSize and KernelVolume).
		lowerBound: directLowerBound,
		arith:      shapeFlops,
		flatArith:  true,
		emit:       emitIGEMM,
		dry:        conv.DryIGEMMTiled,
	},
}

// spec returns the kind's row. An out-of-range Kind reads as Direct, the
// zero value.
func (k Kind) spec() *kindSpec {
	if int(k) >= len(kindTable) {
		k = Direct
	}
	return &kindTable[k]
}

func (k Kind) String() string { return k.spec().name }

// Kinds lists every tunable kind, in Kind order.
var Kinds = func() []Kind {
	ks := make([]Kind, len(kindTable))
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}()

// ParseKind is the inverse of Kind.String. Unknown strings are rejected —
// the cache loader and the wire format both rely on that.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if s == k.String() {
			return k, nil
		}
	}
	return Direct, fmt.Errorf("autotune: unknown kind %q", s)
}

// Design returns the kind's untuned Section-5 dataflow design for a layer
// (at the kind's first tile edge).
func (k Kind) Design(arch memsim.Arch, s shapes.ConvShape) conv.Config {
	row := k.spec()
	return row.design(arch, s, row.edges[0])
}

// Dry evaluates one configuration with the kind's conv reference evaluator:
// exact counts and simulated time, no data. It deliberately does not go
// through MemoMeasure's decomposed path, so a caller re-measuring an engine
// verdict with it checks that path instead of repeating it.
func (k Kind) Dry(arch memsim.Arch, s shapes.ConvShape, c conv.Config) (*conv.Result, error) {
	r, err := k.spec().dry(arch, s, c)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// LowerBound is the kind's lower bound on off-chip traffic, in elements, for
// any schedule with c's fast-memory size (and tile edge): for Direct,
// Winograd and implicit GEMM the larger of the theorem's Q(Sb) and the
// compulsory traffic (bounds.CompulsoryTraffic), for FFT the phase-3 bound.
func (k Kind) LowerBound(s shapes.ConvShape, c conv.Config) float64 {
	return k.spec().lowerBound(s, c.WinogradE, c.SharedPerBlock)
}

// Phase returns the tunable launch of a configuration — its counts and
// launch geometry, what a roofline diagnosis explains — and the seconds of
// the fixed launches that run beside it: fixed + arch.Time(counts, launch)
// is the kind's measured time.
func (k Kind) Phase(arch memsim.Arch, s shapes.ConvShape, c conv.Config) (counts memsim.Counts, l memsim.Launch, fixed float64, err error) {
	row := k.spec()
	if err = s.Validate(); err == nil {
		err = row.validate(c, s, arch)
	}
	if err == nil {
		counts, err = row.counts(s, c)
	}
	if err != nil {
		return memsim.Counts{}, memsim.Launch{}, 0, err
	}
	if row.fixed != nil {
		fixed = row.fixed(arch, s)
	}
	return counts, row.launch(s, c), fixed, nil
}

func outputPlane(s shapes.ConvShape) (h, w int) { return s.Hout(), s.Wout() }

func infallible(counts func(shapes.ConvShape, conv.Config) memsim.Counts) func(shapes.ConvShape, conv.Config) (memsim.Counts, error) {
	return func(s shapes.ConvShape, c conv.Config) (memsim.Counts, error) { return counts(s, c), nil }
}

func anyEdge(design func(memsim.Arch, shapes.ConvShape) conv.Config) func(memsim.Arch, shapes.ConvShape, int) conv.Config {
	return func(arch memsim.Arch, s shapes.ConvShape, _ int) conv.Config { return design(arch, s) }
}

// directLowerBound and winogradLowerBound take the larger of the theorem's
// Hong–Kung term and the compulsory traffic: each term is a floor on the
// traffic, so the larger one is too.
func directLowerBound(s shapes.ConvShape, _, sb int) float64 {
	return max(bounds.DirectLowerBound(s, sb), bounds.CompulsoryTraffic(s))
}

func winogradLowerBound(s shapes.ConvShape, e, sb int) float64 {
	return max(bounds.WinogradLowerBound(s, e, sb), bounds.CompulsoryTraffic(s))
}

// shapeFlops is the arithmetic of the tiled direct dataflows: the same for
// every tiling.
func shapeFlops(s shapes.ConvShape, _ int) float64 { return float64(s.FLOPs()) }

// winogradFlopsFloor lower-bounds the fused Winograd kernel's arithmetic for
// output tile edge e: the element-wise Π accumulation alone is 2·α² flops
// per (input channel, output channel, output sub-tile) with α = e+r-1, and
// any tiling covers at least ceil(out/e) sub-tiles per axis — the
// transforms only add to it.
func winogradFlopsFloor(s shapes.ConvShape, e int) float64 {
	alpha := float64(e + s.Hker - 1)
	subs := float64((s.Wout()+e-1)/e) * float64((s.Hout()+e-1)/e)
	return 2 * alpha * alpha * subs * float64(s.Batch) * float64(s.Cin) * float64(s.Cout)
}

// fftPhase3Flops is the arithmetic of the tunable pointwise-product phase:
// one complex multiply-add (8 real flops) per (image, output channel,
// group-local input channel, frequency bin), whatever the tile.
func fftPhase3Flops(s shapes.ConvShape, _ int) float64 {
	lh, lw := conv.FFTGrid(s)
	return 8 * float64(s.Batch) * float64(s.Cout) * float64(s.Cin/s.G()) * float64(lh*lw)
}

// fftLaunchable: the phase-3 launch counts whole blocks only for tiles that
// divide the frequency grid and the output channels of one group.
func fftLaunchable(s shapes.ConvShape, c conv.Config) bool {
	lh, lw := conv.FFTGrid(s)
	cpg := s.Cout / s.G()
	return lw%c.TileX == 0 && lh%c.TileY == 0 && c.TileZ <= cpg && cpg%c.TileZ == 0
}

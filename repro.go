// Package repro is a Go reproduction of "I/O Lower Bounds for Auto-tuning of
// Convolutions in CNNs" (PPoPP 2021): the red–blue-pebble-game I/O
// lower-bound theory for composite algorithms, its instantiation for the
// direct and Winograd convolution algorithms, the near I/O-optimal dataflow
// designs the bounds suggest, and the optimality-condition-pruned
// auto-tuning engine — all running against a deterministic simulated GPU
// memory hierarchy (see internal/memsim) instead of CUDA hardware.
//
// This root package is the public facade: it re-exports the types a
// downstream user needs and wraps the common workflows (bound queries,
// running the dataflows, tuning a layer). The full machinery lives in the
// internal packages; the example programs under examples/ and the
// experiment regeneration harness under cmd/repro are built on this API.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// Shape describes one convolution layer (batch, channels, spatial dims,
// kernel, stride μ, padding).
type Shape = shapes.ConvShape

// Arch is a simulated accelerator description.
type Arch = memsim.Arch

// Config is one point of the Table-1 configuration space: output tile,
// thread-block geometry, shared memory and layout.
type Config = conv.Config

// Result is the outcome of a simulated convolution: the output tensor (nil
// for count-only runs), exact I/O counts, and the modeled runtime.
type Result = conv.Result

// Tensor is a dense float32 tensor.
type Tensor = tensor.Tensor

// Tile is an output sub-block x×y×z.
type Tile = bounds.Tile

// TuneTrace records a tuning run: the best configuration and every
// measurement in order (History). Its best-so-far series is derived from
// History (autotune.BestSoFar); no rate is stored, and
// shapes.ConvShape.GFLOPS reads a time as the layer's useful rate.
type TuneTrace = autotune.Trace

// Kind selects a convolution algorithm template ("direct", "winograd",
// "fft", "igemm").
type Kind = autotune.Kind

// Algorithm kinds the tuner can search.
const (
	Direct       = autotune.Direct
	Winograd     = autotune.Winograd
	FFT          = autotune.FFT
	ImplicitGEMM = autotune.ImplicitGEMM
)

// ParseKind parses an algorithm kind name; unknown names are rejected.
func ParseKind(name string) (Kind, error) { return autotune.ParseKind(name) }

// Architectures returns the built-in simulated GPU catalog (1080Ti, TitanX,
// V100, GFX906).
func Architectures() []Arch { return memsim.Catalog }

// ArchByName looks up a catalog architecture ("V100", "1080Ti", ...).
func ArchByName(name string) (Arch, error) { return memsim.ByName(name) }

// NewShape builds a square-image layer, the common case in the paper's
// evaluation.
func NewShape(batch, cin, hw, cout, kernel, stride, pad int) (Shape, error) {
	s := Shape{Batch: batch, Cin: cin, Hin: hw, Win: hw, Cout: cout,
		Hker: kernel, Wker: kernel, Strid: stride, Pad: pad}
	return s, s.Validate()
}

// NewGroupedShape is NewShape for a grouped convolution: groups independent
// (cin/groups -> cout/groups) convolutions, covering depthwise layers
// (groups == cin == cout) and everything between. groups must divide both
// channel counts.
func NewGroupedShape(batch, cin, hw, cout, kernel, stride, pad, groups int) (Shape, error) {
	s := Shape{Batch: batch, Cin: cin, Hin: hw, Win: hw, Cout: cout,
		Hker: kernel, Wker: kernel, Strid: stride, Pad: pad, Groups: groups}
	return s, s.Validate()
}

// LowerBoundDirect is Theorem 4.12: the minimum off-chip data movement (in
// elements) of the direct convolution with fast memory of S elements.
func LowerBoundDirect(s Shape, fastMem int) float64 {
	return bounds.DirectLowerBound(s, fastMem)
}

// LowerBoundWinograd is Theorem 4.20 for the Winograd algorithm F(e×e, r×r).
func LowerBoundWinograd(s Shape, e, fastMem int) float64 {
	return bounds.WinogradLowerBound(s, e, fastMem)
}

// DataflowIODirect is Equation 21: the off-chip traffic of the Section 5.2
// dataflow at its optimal tile for fast memory S shared by np processors.
func DataflowIODirect(s Shape, fastMem, np int) float64 {
	return bounds.DirectDataflowIOOptimal(s, fastMem, np)
}

// DataflowIOWinograd is Equation 23 for the Section 5.3 Winograd dataflow.
func DataflowIOWinograd(s Shape, e, fastMem, np int) float64 {
	return bounds.WinogradDataflowIOOptimal(s, e, fastMem, np)
}

// OptimalTileDirect returns the continuous-optimum output tile satisfying
// the paper's optimality condition x·y = R·z.
func OptimalTileDirect(s Shape, fastMem, np int) Tile {
	return bounds.OptimalTileDirect(s, fastMem, np)
}

// RandomOperands builds deterministic random input and kernel tensors.
func RandomOperands(s Shape, seed int64) (input, kernels *Tensor) {
	return conv.RandomOperands(s, seed)
}

// Reference computes the convolution with the plain CPU oracle.
func Reference(s Shape, input, kernels *Tensor) (*Tensor, error) {
	return conv.Reference(s, input, kernels)
}

// DefaultDirectConfig is the untuned Section 5.2 dataflow design for a
// layer: optimality-condition tile sized to S/Np.
func DefaultDirectConfig(arch Arch, s Shape) Config {
	return conv.DefaultDirectConfig(arch, s)
}

// DefaultWinogradConfig is the untuned Section 5.3 design for F(e×e, r×r).
func DefaultWinogradConfig(arch Arch, s Shape, e int) Config {
	return conv.DefaultWinogradConfig(arch, s, e)
}

// RunDirect executes the I/O-optimal direct dataflow on the simulated
// architecture, computing real values and exact I/O counts.
func RunDirect(arch Arch, s Shape, cfg Config, input, kernels *Tensor) (*Result, error) {
	return conv.DirectTiled(arch, s, cfg, input, kernels)
}

// RunWinograd executes the fused Winograd dataflow.
func RunWinograd(arch Arch, s Shape, cfg Config, input, kernels *Tensor) (*Result, error) {
	return conv.WinogradFused(arch, s, cfg, input, kernels)
}

// MeasureDirect returns the exact counts and simulated time of the direct
// dataflow without computing values (fast, any scale).
func MeasureDirect(arch Arch, s Shape, cfg Config) (*Result, error) {
	return autotune.Direct.Dry(arch, s, cfg)
}

// MeasureKind is MeasureDirect for any algorithm kind: that kind's conv
// reference evaluator, the one the engine's memoized measurements are
// pinned bit-identical to — exposed for re-measuring a tuned configuration
// independently of the engine.
func MeasureKind(arch Arch, s Shape, kind Kind, cfg Config) (*Result, error) {
	return kind.Dry(arch, s, cfg)
}

// MeasureLibraryDirect returns the better of the two library direct paths
// (naive, im2col+GEMM) — the baseline the paper compares against.
func MeasureLibraryDirect(arch Arch, s Shape) (*Result, error) {
	return conv.LibraryDirectDry(arch, s)
}

// MeasureLibraryWinograd returns the unfused library-style Winograd
// pipeline's counts and simulated time.
func MeasureLibraryWinograd(arch Arch, s Shape, e int) (*Result, error) {
	return conv.WinogradUnfusedDry(arch, s, e)
}

// MeasureImplicitGEMM returns the implicit-GEMM direct algorithm's counts
// and simulated time — the modern library path, provided as an extension
// beyond the paper's cuDNN-7-era baselines.
func MeasureImplicitGEMM(arch Arch, s Shape) (*Result, error) {
	return conv.ImplicitGEMMDry(arch, s)
}

// MeasureFFTConv returns the frequency-domain convolution's counts and
// simulated time — the other indirect method of the paper's taxonomy,
// competitive only at large kernel sizes.
func MeasureFFTConv(arch Arch, s Shape) (*Result, error) {
	return conv.FFTConvDry(arch, s)
}

// Measurement is one dry-run measurement outcome, as produced by the
// engine's measurers.
type Measurement = autotune.Measurement

// Measurer evaluates one configuration; ok is false for configurations
// that fail to build or exceed resources.
type Measurer = autotune.Measurer

// FallibleMeasurer is the error-aware measurement seam: a non-nil error is
// a transient failure (retryable), distinct from ok=false (config invalid,
// final). The engine's retry pipeline (see RetryPolicy) absorbs the
// former.
type FallibleMeasurer = autotune.FallibleMeasurer

// RetryPolicy configures the engine's fault-tolerant measurement pipeline:
// retry with capped, deterministically-jittered exponential backoff;
// quarantine after MaxAttempts consecutive transient failures; and a
// median-of-k noisy-reading defense anchored on the I/O lower bound. The
// zero value (no retries, no defense) reproduces the fault-oblivious
// engine bit-for-bit.
type RetryPolicy = autotune.RetryPolicy

// TuneOptions controls a tuning run; the zero value selects defaults.
type TuneOptions struct {
	// Budget is the maximum number of measurements (default 400).
	Budget int
	// Seed makes the run deterministic (default 1).
	Seed int64
	// Workers is how many goroutines measure each candidate batch
	// concurrently (default 1). The tuning outcome is identical for any
	// worker count at a fixed seed.
	Workers int
	// MeasureLatency emulates the per-measurement hardware round-trip that
	// real auto-tuners overlap with a parallel measurement executor.
	MeasureLatency time.Duration
	// NoPrune disables the engine's bound-guided pruning: by default a
	// candidate whose I/O-lower-bound-implied time already exceeds the best
	// measured time is skipped without being measured (the skip count comes
	// back in TuneTrace.Pruned). The bound is a true floor on every
	// measurement, so pruning never discards a candidate that could have
	// improved the incumbent — skipped measurements are pure savings,
	// though the freed budget may steer a budget-limited search along a
	// different (typically better) trajectory than a NoPrune run.
	NoPrune bool
	// MinDelta is the relative improvement below which the engine's
	// patience is not reset (classic early stopping's min_delta): a search
	// polishing its incumbent by sub-MinDelta slivers retires instead of
	// paying the full patience again per sliver. The best configuration
	// still updates on any improvement. 0 (default): any improvement
	// resets patience.
	MinDelta float64
	// Retry configures the fault-tolerant measurement pipeline (retries,
	// quarantine, noise defense); the zero value changes nothing. Only
	// meaningful with a measurement backend that can actually fail — the
	// built-in simulator never does.
	Retry RetryPolicy
}

func (o TuneOptions) lower() autotune.Options {
	opts := autotune.DefaultOptions()
	if o.Budget > 0 {
		opts.Budget = o.Budget
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	if o.Workers > 0 {
		opts.Workers = o.Workers
	}
	opts.MeasureLatency = o.MeasureLatency
	opts.NoPrune = o.NoPrune
	opts.MinDelta = o.MinDelta
	opts.Retry = o.Retry
	return opts
}

// TuneKind runs the paper's auto-tuning engine for an algorithm kind on its
// optimality-condition-pruned searching domain (for Winograd the tile edge
// e ∈ {2, 4} is part of the search).
func TuneKind(arch Arch, s Shape, kind Kind, o TuneOptions) (*TuneTrace, error) {
	sp, err := autotune.NewSpace(s, arch, kind, 0, true)
	if err != nil {
		return nil, err
	}
	return autotune.Tune(sp, autotune.KindMeasurer(arch, s, kind), o.lower())
}

// ResumeKind continues a cached search at a (typically higher) budget: the
// persisted measurement history replays into the engine — no measurement is
// ever repeated — and the grown state is written back to the cache. A
// cached history already covering the budget returns as a synthesized trace
// without measuring anything.
func ResumeKind(arch Arch, s Shape, kind Kind, cache *TuningCache, o TuneOptions) (*TuneTrace, error) {
	sp, err := autotune.NewSpace(s, arch, kind, 0, true)
	if err != nil {
		return nil, err
	}
	return autotune.TuneResumed(cache, sp, autotune.KindMeasurer(arch, s, kind), o.lower())
}

// NetworkLayer is one layer of a network-level tuning request.
type NetworkLayer = autotune.NetworkLayer

// LayerVerdict is the tuning outcome of one network layer.
type LayerVerdict = autotune.LayerVerdict

// TuningCache persists tuning verdicts per (arch, algorithm, shape); it is
// safe for concurrent use and deduplicates concurrent searches of the same
// key.
type TuningCache = autotune.Cache

// NewTuningCache returns an empty tuning cache. Use LoadFile/SaveFile to
// persist it across runs.
func NewTuningCache() *TuningCache { return autotune.NewCache() }

// NetworkTuneOptions controls a network-level tuning run.
type NetworkTuneOptions struct {
	// Budget, Seed, Workers, MeasureLatency and NoPrune are the per-layer
	// engine options (see TuneOptions).
	Budget         int
	Seed           int64
	Workers        int
	MeasureLatency time.Duration
	NoPrune        bool
	// LayerWorkers is how many layers tune concurrently (default
	// GOMAXPROCS); verdicts do not depend on it.
	LayerWorkers int
	// Winograd also tunes the fused Winograd dataflow where it applies and
	// keeps the better verdict, as the paper's end-to-end evaluation does.
	Winograd bool
	// Kinds lists extra algorithm kinds the per-layer kernel choice may
	// consider where each applies (Winograd, FFT, ImplicitGEMM); the direct
	// dataflow is always tuned and every layer keeps the fastest verdict.
	Kinds []Kind
	// Warm enables cross-layer warm-starting: every layer starts from the
	// cached verdicts of its algorithm that rank best in its space by I/O
	// floor × measured/floor ratio, instead of cold (a kind with no cached
	// verdict first tunes one layer per kernel-and-stride family cold).
	// Repeated-geometry networks converge in a fraction of the
	// measurements; verdicts stay deterministic for a fixed Seed at any
	// worker count. A reloaded cache seeds later runs the same way.
	Warm bool
	// Resume re-enters cached layers whose persisted search state is
	// shorter than Budget: the stored measurement history replays (no
	// measurement is ever repeated) and the search continues with the
	// remaining budget.
	Resume bool
	// Retry configures the per-layer fault-tolerant measurement pipeline
	// (see TuneOptions.Retry).
	Retry RetryPolicy
}

// TuneNetwork tunes every layer of a network concurrently with a shared
// cache: layers with identical shape keys are deduplicated and tune once.
// cache may be nil for a throwaway run. Verdicts come back in layer order
// and are deterministic for a fixed seed at any worker count.
func TuneNetwork(arch Arch, layers []NetworkLayer, cache *TuningCache, o NetworkTuneOptions) ([]LayerVerdict, error) {
	return TuneNetworkContext(context.Background(), arch, layers, cache, o)
}

// TuneNetworkContext is TuneNetwork bounded by a context: past ctx's
// deadline (or on cancellation) every still-running layer search stops
// after its current measurement and reports best-so-far, so the sweep
// returns a complete verdict list with truncated layers marked Partial
// instead of an error. Truncated engine state persists into cache at its
// honest budget; repeating the request with Resume continues the search.
func TuneNetworkContext(ctx context.Context, arch Arch, layers []NetworkLayer, cache *TuningCache, o NetworkTuneOptions) ([]LayerVerdict, error) {
	per := TuneOptions{Budget: o.Budget, Seed: o.Seed, Workers: o.Workers, MeasureLatency: o.MeasureLatency, NoPrune: o.NoPrune, Retry: o.Retry}
	return autotune.TuneNetworkContext(ctx, arch, layers, cache, autotune.NetworkOptions{
		Tune:     per.lower(),
		Workers:  o.LayerWorkers,
		Winograd: o.Winograd,
		Kinds:    o.Kinds,
		Warm:     o.Warm,
		Resume:   o.Resume,
	})
}

// NetworkSeconds sums repeat-weighted simulated layer times of a verdict
// list — the tuned network's end-to-end convolution time.
func NetworkSeconds(verdicts []LayerVerdict) float64 {
	return autotune.NetworkSeconds(verdicts)
}

// Verify checks that a result's output matches the reference oracle within
// tol, returning the max absolute difference.
func Verify(s Shape, res *Result, input, kernels *Tensor, tol float64) (float64, error) {
	if res.Output == nil {
		return 0, fmt.Errorf("repro: result has no output tensor (count-only run)")
	}
	want, err := conv.Reference(s, input, kernels)
	if err != nil {
		return 0, err
	}
	diff := tensor.MaxAbsDiff(res.Output, want)
	if diff > tol {
		return diff, fmt.Errorf("repro: output differs from reference by %g (tol %g)", diff, tol)
	}
	return diff, nil
}

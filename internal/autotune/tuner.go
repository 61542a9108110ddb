package autotune

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// Measurement is the outcome of measuring one configuration on the
// simulated hardware (the template manager's job in Figure 8).
type Measurement struct {
	Seconds float64
}

// Measurer runs one configuration and reports its cost; ok is false for
// configurations that fail to build or exceed resources (TVM's "timeout"
// measurements).
type Measurer func(conv.Config) (Measurement, bool)

// KindMeasurer measures configs with the dataflow of an algorithm kind on
// arch (dry: exact counts, no data). The returned Measurer carries its own
// counts memo (see MemoMeasure): repeated evaluations of configs sharing a
// tile are O(1) lookups, with results bit-identical to the kind's conv.Dry*
// evaluator.
func KindMeasurer(arch memsim.Arch, s shapes.ConvShape, kind Kind) Measurer {
	return NewMemoMeasure(arch, s, kind).Measure
}

// MeasuredConfig is one measurement record of a tuning run: the
// configuration, its outcome and whether it measured successfully. Traces
// carry the full record stream (Trace.History); it is the raw material of
// cache-persisted resume.
type MeasuredConfig struct {
	Config conv.Config
	M      Measurement
	OK     bool
}

// warmStart is the transfer seam of the engine: everything a search may
// inherit from related, already-finished searches instead of starting cold.
// Only TuneNetwork's warm searches (seedsFor) and the cache's resume road
// (withHistory) build one.
type warmStart struct {
	// Seeds are cached verdicts of other searches of the kind, snapped into
	// this space and ranked by floor × measured/floor ratio (seedsFor). They
	// are measured first, so the walkers start from transferred verdicts
	// instead of random guesses.
	Seeds []conv.Config
	// History is this exact key's own earlier measurement stream (from a
	// persisted cache entry). It is replayed — marked seen, booked into
	// the trace and the training set — without re-measuring anything, so a
	// resumed search at a higher budget continues where it stopped.
	History []MeasuredConfig
}

// Options controls a tuning run.
type Options struct {
	// Budget is the maximum number of measurements.
	Budget int
	// BatchSize is how many configurations are measured per iteration: the
	// model ranks a candidate pool and the most promising members, at most
	// one per tile, are measured together (see Tune). (The cost model is
	// refitted as the training set grows, not per batch.)
	BatchSize int
	// Walkers is n_s, the number of parallel random walks of the explorer.
	Walkers int
	// WalkSteps is how many model-guided steps each walker takes per
	// iteration.
	WalkSteps int
	// Patience stops the run after this many measurements without
	// improvement (0 disables; DefaultOptions sets 64). A Direct-led
	// follower in a network sweep whose lead's incumbent lies below its own
	// stops after min(Patience, 2·BatchSize) instead. The gap stop asks ever
	// looser ratios as a search goes flat, towards G at Patience, and from
	// 2·BatchSize flat measurements on, while the budget covers the rest of
	// Patience, each loop batch spends two slots on tile shapes the search
	// has not measured (see Tune).
	Patience int
	// MinDelta is the relative improvement (in measured seconds) below
	// which an improvement does not reset Patience — the min_delta of
	// classic early stopping. The best configuration still updates on any
	// improvement; MinDelta only governs when the run is considered
	// converged, so a search polishing its incumbent by sub-MinDelta slivers
	// retires instead of paying Patience again per sliver. 0 (the default)
	// keeps the strict behavior: every improvement resets Patience.
	MinDelta float64
	// Seed makes runs deterministic.
	Seed int64
	// NoSeeds disables the Section-5 dataflow-design starting
	// configurations. The TVM-proxy runs use this: an external tuner has no
	// knowledge of the paper's optimality condition.
	NoSeeds bool
	// NoPrune disables bound-guided pruning: with it set, every selected
	// candidate is measured even when the I/O lower bound already proves it
	// cannot beat the best measured configuration. The TVM-proxy and
	// ablation runs use this — an external tuner has no lower-bound oracle
	// — and it is the switch behind cmd/autotune's -no-prune flag.
	NoPrune bool
	// Workers is how many goroutines the measurement executor fans each
	// batch of candidates across (default 1). The best configuration, the
	// measurement history and every other engine output are bit-identical for
	// any worker count given a fixed Seed: candidates are chosen before the
	// batch is dispatched and outcomes are recorded in submission order, up
	// to the one a proof ends the search at (see fanBooked).
	Workers int
	// MeasureLatency emulates the per-measurement hardware round-trip
	// (compile + launch + read-back) that the dry simulator elides. Real
	// auto-tuners parallelize measurement precisely to overlap this wait;
	// with Workers > 1 the executor does the same.
	MeasureLatency time.Duration
	// warm, when non-nil, warm-starts the search: other searches' cached
	// verdicts ranked for this space, and/or this key's own persisted
	// history to resume from.
	// A warm search that may prune learns the floor residual (see Tune). nil
	// reproduces the cold engine bit-for-bit.
	warm *warmStart
	// lead, when non-nil, reads the search's layer lead — another kind's
	// search of the same shape — as TuneNetwork hands it to every search
	// but the lead: the layer's Winograd search where it has one, its
	// Direct search otherwise. lead(n) is the lead's incumbent seconds after
	// its last booking of at most n measurements — its final verdict where
	// it books none past its last — and +Inf before a valid measurement or
	// where it failed, waiting for the lead to get that far. It is never
	// below the lead's final verdict. The gap stop reads it (see Tune).
	lead func(n int) float64
	// leadDirect says the lead is a Direct search, which every request
	// reads: the waiver then needs no proof from the search's own incumbent.
	leadDirect bool
	// booked, when non-nil, is called after every booking of measurements
	// with the trace's measurement count and the incumbent's seconds (+Inf
	// before a valid one): TuneNetwork publishes a lead's progress with it.
	booked func(n int, best float64)
	// Retry configures the fault-tolerant measurement pipeline (retry with
	// backoff, quarantine, noisy-reading defense). The zero value with an
	// error-free measurer reproduces the fault-oblivious engine
	// bit-for-bit; see RetryPolicy.
	Retry RetryPolicy
	// OnEvent, when non-nil, is the engine's one event sink: called once
	// per fresh measurement, per transient-failure retry and per
	// quarantined configuration (see Event). The tuning service uses it to
	// account measurement work across concurrent requests; it must be cheap
	// and safe for concurrent use, and it must not influence the search
	// (the engine's outputs are identical with or without it).
	OnEvent func(Event)
}

// Event is one engine occurrence reported through Options.OnEvent.
type Event int

const (
	// EventMeasure is one fresh measurement, reported after its outcome is
	// booked. Replayed history and bound-pruned candidates do not count.
	EventMeasure Event = iota
	// EventRetry is one transient-failure measurement retry.
	EventRetry
	// EventQuarantine is one configuration quarantined after
	// Retry.MaxAttempts consecutive transient failures.
	EventQuarantine
)

// DefaultOptions are sensible mid-size tuning settings.
func DefaultOptions() Options {
	return Options{Budget: 400, BatchSize: 8, Walkers: 8, WalkSteps: 24, Patience: 64, Seed: 1, Workers: 1}
}

func (o Options) normalized() Options {
	o.Budget, o.BatchSize, o.Walkers = max(o.Budget, 1), max(o.BatchSize, 1), max(o.Walkers, 1)
	o.WalkSteps, o.Workers = max(o.WalkSteps, 1), max(o.Workers, 1)
	return o
}

// Trace records a tuning run: the best configuration found and every
// measurement in order (History), from which BestSoFar derives the
// best-so-far series (Figure 11's curves).
type Trace struct {
	Method       string
	Best         conv.Config
	BestM        Measurement
	Measurements int
	// ConvergedAt is the measurement index (1-based) of the last
	// improvement — the paper's "iterations" column in Table 2.
	ConvergedAt int
	// Pruned counts the candidates the bound-guided filter discarded
	// without measuring: their lower-bound-implied time already exceeded
	// the best measured time. Always 0 with Options.NoPrune (the baseline
	// searchers are bound-blind and never prune).
	Pruned int
	// History records every measurement in submission order (replayed
	// history included, on a resumed run). Cache.PutTrace persists it, and
	// a resumed search replays it.
	History []MeasuredConfig
	// Budget is the measurement budget the run was given (normalized).
	// Persisted with the trace, it lets a resume request distinguish "this
	// search stopped early on patience at this very budget" (covered —
	// nothing to continue) from "this search ran out of a smaller budget"
	// (resume with the remainder).
	Budget int
	// Partial marks a run cut short by context cancellation or deadline:
	// Best/BestM are the best-so-far verdict, not the converged one. On a
	// partial run Budget is lowered to Measurements, so a persisted trace
	// resumes honestly — a repeated request continues the search instead of
	// treating the truncated run as full coverage.
	Partial bool
	// Retries counts transient-failure measurement re-attempts (see
	// Options.Retry); 0 on the default path.
	Retries int
	// Quarantined counts configurations abandoned after
	// Retry.MaxAttempts consecutive transient failures. A quarantined
	// config is booked as a failed measurement (alongside Pruned it is the
	// other way a candidate leaves the run without a reading).
	Quarantined int
	// Remeasured counts the extra readings the noisy-reading defense took
	// (they do not consume Budget: budget accounts configurations, not
	// raw readings).
	Remeasured int
	// Refits counts the cost-model fits this search ran — full TrainGBT
	// fits and incremental Updates alike. In memory only: a cache entry does
	// not persist it.
	Refits int
	// Probes is the tile-shape probes' share of the run (see Tune): the
	// configurations they had measured and the improvements those booked.
	// In memory only, like Refits.
	Probes Credit
	// Stop says why the run ended. In memory only, like Refits.
	Stop StopReason
	// GapRef is the reference the gap proof held against when Stop is
	// StopGap — the incumbent's seconds: no measurable configuration has a
	// tight floor below GapRef / g(f), f < Patience the fresh measurements
	// since the last significant improvement and g(f) < 1.3 (gapWait), so
	// below GapRef / 1.3 on every gap stop. On a waived stop it is its layer
	// lead's incumbent at leadAhead times its own measurements, below every
	// tight floor. 0 on every other stop; in memory only, like Stop.
	GapRef float64
	// Waived is set on a gap stop on the layer lead: its incumbent lies
	// below every tight floor of the space, so the kind cannot win the
	// layer. Under a Winograd lead the search's own incumbent also proves
	// the gap; under a Direct lead, which every request reads, it need not.
	// In memory only, like Stop.
	Waived bool
}

// Credit is one proposer's share of a run: the configurations it proposed
// that were measured, and how many of those improved the incumbent.
type Credit struct {
	Measured, Improved int
}

// StopReason is why a tuning run ended.
type StopReason uint8

const (
	// StopBudget: the run spent its measurement budget.
	StopBudget StopReason = iota
	// StopPatience: Patience measurements passed without a significant
	// improvement — fewer for a Direct-led follower that trails its lead
	// (see Options.Patience).
	StopPatience
	// StopCertified: the incumbent met the minimum tight floor of the space
	// (Space.minFloor), so no configuration can beat it.
	StopCertified
	// StopExhausted: an iteration's walkers and random samples proposed no
	// unseen configuration that the pruning floor did not rule out. Nothing
	// more is known: the space may still hold unseen configurations that
	// could win.
	StopExhausted
	// StopCancelled: the context was cancelled or its deadline passed
	// (Trace.Partial).
	StopCancelled
	// StopGap: no measurable configuration has a tight floor below the
	// search's incumbent over g(f), a ratio that grows from 1 towards
	// gapRatio as the search goes flat, so nothing left can move its verdict
	// by more than that factor (Trace.GapRef); or its kind cannot win its
	// layer (Trace.Waived).
	StopGap
)

// gapRatio (G) bounds the gap stop's ratio, and leadAhead sets how far
// ahead of a follower its lead's incumbent is read, as a multiple of the
// follower's measurements (see Tune).
const (
	gapRatio  = 1.3
	leadAhead = 2
)

// gapWait is g(f), the ratio the gap stop proves after f < patience fresh
// measurements without a significant improvement: 1 + (G−1)·(f/patience)³.
// It runs from the certificate's ratio (g = 1) towards G, so a search whose
// incumbent the bound already holds within a few percent stops after a few
// flat batches instead of waiting out Patience.
func gapWait(f, patience int) float64 {
	x := float64(f) / float64(patience)
	return 1 + (gapRatio-1)*x*x*x
}

func (r StopReason) String() string {
	switch r {
	case StopPatience:
		return "patience"
	case StopCertified:
		return "certified"
	case StopExhausted:
		return "exhausted"
	case StopCancelled:
		return "cancelled"
	case StopGap:
		return "gap"
	}
	return "budget"
}

// record is the shared bookkeeping of all strategies.
type record struct {
	trace Trace
	found bool
	// minDelta is Options.MinDelta: improvements smaller than this relative
	// threshold update the best but do not reset patience.
	minDelta float64
	// sigAt is the measurement index of the last significant (> minDelta)
	// improvement; with minDelta 0 it equals trace.ConvergedAt.
	sigAt int
	// resumedAt is how many measurements were replayed from persisted
	// history rather than performed; patience only counts fresh ones.
	resumedAt int
}

func (r *record) add(c conv.Config, m Measurement, ok bool) {
	r.trace.Measurements++
	r.trace.History = append(r.trace.History, MeasuredConfig{Config: c, M: m, OK: ok})
	if ok && (!r.found || incumbentBefore(m.Seconds, c, r.trace.BestM.Seconds, r.trace.Best)) {
		// A tie at the incumbent's seconds takes the verdict but is no
		// improvement: it moves neither ConvergedAt nor patience.
		if !r.found || m.Seconds < r.trace.BestM.Seconds {
			if !r.found || r.trace.BestM.Seconds-m.Seconds > r.minDelta*r.trace.BestM.Seconds {
				r.sigAt = r.trace.Measurements
			}
			r.trace.ConvergedAt = r.trace.Measurements
		}
		r.found = true
		r.trace.Best = c
		r.trace.BestM = m
	}
}

// incumbentBefore reports whether a measurement of c at seconds t displaces
// an incumbent best at bt: it is faster, or as fast and first in configLess
// order — so the verdict is a function of the measured set, not of the order
// the walk measured it in. record.add and BestSoFar share it.
func incumbentBefore(t float64, c conv.Config, bt float64, best conv.Config) bool {
	return t < bt || (t == bt && configLess(c, best))
}

// over reports whether the run has spent its budget or its patience, and
// books which in trace.Stop.
func (r *record) over(budget, patience int) bool {
	switch {
	case r.trace.Measurements >= budget:
		r.trace.Stop = StopBudget
	case r.stale(patience):
		r.trace.Stop = StopPatience
	default:
		return false
	}
	return true
}

func (r *record) stale(patience int) bool {
	return patience > 0 && r.found && r.flat() >= patience
}

// flat is how many fresh measurements the run has taken since its last
// significant improvement; replayed history is not fresh.
func (r *record) flat() int {
	return r.trace.Measurements - max(r.sigAt, r.resumedAt)
}

// Tune runs the paper's auto-tuning engine (Figure 8): iterate
// {refit the cost model when enough new measurements have arrived; explore
// with n_s parallel model-guided random walks from the current best
// configurations; measure the proposals; update the dataset} until one of
// four stops: the budget is spent (StopBudget), patience is exhausted
// (StopPatience), the incumbent is proven optimal (StopCertified), or the
// bound proves that nothing left can move the layer's verdict by more than
// a ratio that grows from 1 towards 1.3 as the search goes flat (StopGap). Each
// batch of proposals is measured by the worker-pool executor (opts.Workers
// goroutines, search.measure); outcomes are booked in submission order
// (search.add), so the run is deterministic for a fixed seed at any worker
// count.
//
// The engine is one driver (TuneFallible) over a search, the state every
// phase shares. The driver measures the opening proposals in order — the
// Section-5 designs (search.designs), the snapped warm seeds
// (search.snapped), the initial random guesses (search.initial) — and then
// loops: ask the stops (search.stop), propose a batch (search.walk),
// measure it (search.measure).
//
// Each batch the loop measures is spread over tiles: the model ranks the
// whole candidate pool and the batch takes, in rank order, at most one
// configuration per tile (TileX, TileY, TileZ, WinogradE), except that the
// incumbent's own tile may fill it while the incumbent improved within the
// last BatchSize measurements (pickBatch). A tile fixes a configuration's
// traffic; its other configurations differ only in threads, Sb and layout,
// and a flat search re-measuring them rarely finds the late improvement a
// new tile does.
//
// The walkers step one axis at a time from the best measured
// configurations, so they seldom reach a tile of another shape: the winning
// aspect can lie several TileX, TileY and TileZ moves from the incumbent.
// So once a pruning search has gone 2·BatchSize measurements without a
// significant improvement, each loop batch gives its last two slots to
// tile-shape probes (search.probes), while its budget covers the rest of its
// Patience window: the probes look for the late improvement Patience waits
// for, and a search its budget stops first gains too little from them to
// pay for their table. A tile-shape class is
// (round(log2(TileX/TileY)), TileZ, WinogradE), and its representative is
// its least tileRates-bound tile at that tile's measurable thread counts of
// least tight floor, from a table the search builds on its first probe off
// the best-first walk's group floors (Space.shapeClasses). The probes are the
// representatives of the classes no booking has reached yet, least
// predicted cost first, skipping one of a tile the batch has taken or whose
// tight floor is not below the incumbent. Bound-blind runs
// (NoPrune) never probe: the representatives are chosen by the floor.
// Trace.Probes credits them.
//
// Six things keep the engine's own machinery off the critical path:
//
//   - The stops on a proof (unless opts.NoPrune; search.proven): the search
//     asks one proof about m, the least tight floor over the space's
//     measurable configurations (Space.minFloor). The certificate asks, once the
//     incumbent's measured time t attains its own tight floor
//     (analyticFloor, no scan), whether t ≤ m: floor ≤ measurement holds
//     for every configuration, so then nothing can beat it, and the run
//     stops with Trace.Stop = StopCertified. The gap stop asks, f fresh
//     measurements after the last significant improvement, whether
//     r/g(f) ≤ m, where g(f) = 1 + 0.3·(f/s)³ grows from 1 towards 1.3 at
//     s = Patience (gapWait) and r is the incumbent's seconds. Then no
//     measurement left can move the search's verdict by more than a factor
//     g(f) < 1.3, and the run stops with Trace.Stop = StopGap and
//     Trace.GapRef = r: an incumbent the bound holds within a few percent
//     stops after a few flat batches, a looser one waits longer for the
//     improvement that would tighten it. The waiver asks, on a follower,
//     whether u < m, u its layer lead's incumbent after twice the
//     follower's measurements (the lead's final verdict where it stops
//     short; the network sweep makes the layer's Winograd search its lead
//     where it has one, its Direct search otherwise), waiting for the lead
//     to get there: then the lead's
//     verdict, ≤ u, lies below every floor, the kind cannot win the layer,
//     and the run stops with Trace.Waived and Trace.GapRef = u. Every
//     request searches Direct and answers the least verdict over its kinds,
//     so a Direct-led follower waived so is never any reply's answer. A
//     Winograd-led one is waived only where its own incumbent also proves
//     the gap, r/1.3 ≤ m: a "winograd": false request reads it without its
//     lead, and gets a verdict within 1.3 of its optimum. The two exact
//     proofs — the certificate and a Direct-led follower's waiver — are
//     asked after every booked measurement (search.stop(false)) and end the
//     search at the one that proves them: nothing later in its batch, and no
//     later batch (seed, warm seed, initial random, loop), is booked. The gap
//     stop and a Winograd-led follower's waiver, like Patience and the
//     budget, are asked between batches (search.stop(true)). So is a
//     Direct-led follower's Patience, which
//     is 2·BatchSize where u lies below its incumbent r: every request
//     searches Direct and answers the least verdict, so a follower that
//     trails its Direct lead matters only if it overtakes it, which a
//     search flat for two batches seldom does. A Winograd-led follower keeps
//     the full Patience, since a "winograd": false request reads it alone,
//     and so does a lead. A booked stop is final: no later check
//     rewrites it. The proof keeps a lower bound on m and whether it is m
//     itself, and scans only when asked above an inexact bound, cut at the
//     asked value: a scan that finds a floor below it has found m, and one
//     that finds none raises the bound to it. Every answer is a function of
//     m, the booked prefix and the lead's progress — a function of the
//     lead's own trace — so the stops fire at the same measurement at any
//     worker count.
//   - Bound-guided pruning (unless opts.NoPrune; search.prune): the
//     I/O-lower-bound oracle (Space.BoundSeconds) filters the candidate pool
//     as it forms, before the batched ranking prediction; the walkers
//     themselves step freely, warm or cold. The measurement batch asks the
//     same predicate: nothing is measured between pool formation and the
//     batch, so on a loop batch it cannot fire again — it is the only gate
//     the Section 5 seed, transferred-seed and initial-random batches pass
//     through. Provably-worse candidates are counted in Trace.Pruned.
//     Because the bound is a true floor on every measurement, pruning can
//     never discard a configuration that would have improved the verdict.
//   - Warm-started cost model: the GBT forest is kept across iterations
//     and refit incrementally (GBTModel.Update) on the grown dataset, with
//     a full retrain only when the forest would exceed its size cap.
//   - Amortised refits: past the first warmStartRows rows (from the first
//     fit on a residual search) the model is refitted only when the training
//     set has grown by an eighth since the last fit, so the fits of a search
//     number O(log budget) and each sees a batch of rows big enough to move
//     it; between fits the walkers keep the model and its prediction memo.
//     Trace.Refits counts them.
//   - Allocation-free ranking: the best-measured set is kept by a bounded
//     max-heap and the candidate pool is ranked into a recycled slice.
//   - One prediction per configuration per refit: the walkers and the
//     ranking read the model through a memo (predictor) that is cleared
//     whenever the model changes.
//
// A warm start (set only by TuneNetwork's warm searches and the cache's
// resume road) transfers state from related searches: other searches'
// cached verdicts, snapped into the space, ranked by floor × measured/floor
// ratio and measured first (replacing the cold start's random guesses), or a
// persisted history, replayed without re-measuring (search.replay) so a
// cached search resumes at a higher budget. A warm search
// that may prune starts its model on few rows, so the I/O bound carries it:
// the model learns log measured − log analyticFloor, the floor residual, and
// a prediction adds the log floor back. Its cadence is geometric from the
// first fit. Without a warm start, or under NoPrune, the engine is
// bit-identical to the cold path: raw log-seconds, full refits below
// warmStartRows.
func Tune(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	return TuneFallible(context.Background(), sp, LiftMeasurer(measure), opts)
}

// TuneFallible is the engine itself, over the error-aware measurement seam
// (Tune lifts a plain Measurer into it): the measurer may report transient
// failures, which the engine retries, backs off and quarantines per
// opts.Retry. See FallibleMeasurer and RetryPolicy.
//
// The run is bounded by ctx: when ctx is cancelled or its deadline passes,
// the run stops claiming new measurements (in-flight ones finish — a device
// run cannot be recalled) and returns the best-so-far verdict with
// Trace.Partial set instead of an error, provided at least one valid
// configuration measured. The Section 5 seed configurations are always
// measured, even under an already-expired context, so any run over a space
// with valid seeds produces a verdict.
func TuneFallible(ctx context.Context, sp *Space, measure FallibleMeasurer, opts Options) (*Trace, error) {
	s := newSearch(ctx, sp, measure, opts)
	s.replay()
	warm := s.snapped()
	// The seed batch runs unconditionally — even under an already-expired
	// ctx — so a deadline-bounded run over a space with valid seeds always
	// has a verdict to report.
	s.measure(context.Background(), s.designs())
	s.measure(ctx, warm)
	s.measure(ctx, s.initial(len(warm) > 0))
	for !s.stop(true) {
		s.measure(ctx, s.walk())
	}
	t := &s.rec.trace
	if ctx.Err() != nil && t.Measurements < s.opts.Budget && t.Stop != StopCertified && t.Stop != StopGap {
		// Cut short: the verdict is best-so-far, and the honest budget for a
		// persisted trace is what actually ran — a repeat request resumes
		// the search instead of trusting truncated coverage.
		t.Partial, t.Budget, t.Stop = true, t.Measurements, StopCancelled
	}
	return finish(s.rec)
}

// search is one run of the engine: the booked state its driver
// (TuneFallible), its proposers (designs, snapped, initial, walk) and its
// stops share. A new proposer is a method that returns a batch for
// measure, called by the driver in its turn; a per-stage count is a field
// here, bumped where the stage runs.
type search struct {
	ctx  context.Context // bounds the run: stop books its cancellation
	sp   *Space
	opts Options // normalized
	rng  *rand.Rand
	// res is the fault-tolerance pipeline around the measurer: retry with
	// seeded backoff, quarantine, noisy-reading defense. With the zero
	// RetryPolicy and an error-free measurer every run() is exactly one
	// measure() call, so the default path is untouched.
	res resilient
	rec *record // apart, so the returned trace holds none of the buffers below
	// Training rows are slices into one growing backing array (featStore):
	// featurizing a measurement appends NumFeatures floats instead of
	// allocating a fresh vector per config.
	feats            [][]float64
	featStore, costs []float64
	seen             map[conv.Config]bool
	// top holds the best measured configs (by real cost); they re-seed the
	// walkers each iteration — the paper's "promising configurations are
	// saved as the initial guesses for the next searching step".
	top    bestK
	floors proof
	// stopped is set once stop has booked a stop: nothing is measured or
	// booked after it, and no later check rewrites the stop. exhausted is
	// set by a walk that found nothing to propose.
	stopped, exhausted bool
	// Scratch reused across batches: the batch, the proposed batch and the
	// outcomes; the model's view (the model and its prediction memo), the
	// candidate pool, the walker starts and the ranking, the batch's tiles.
	batchBuf, candBuf []conv.Config
	resultBuf         []outcome
	view              predictor
	pool              map[conv.Config]bool
	startsBuf, ranked []scored
	tiles             map[tileKey]bool
	// The tile-shape probes (probes): the search's class table and the
	// classes booked so far, both from the search's first probe on, and the
	// loop batch's probes.
	classes *shapeClasses
	booked  []bool
	probed  [probeSlots]conv.Config
	nprobed int
}

func newSearch(ctx context.Context, sp *Space, measure FallibleMeasurer, opts Options) *search {
	opts = opts.normalized()
	return &search{
		ctx: ctx, sp: sp, opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		res:  *newResilient(measure, sp, opts.Retry, opts.Seed),
		rec:  &record{trace: Trace{Method: "ate", Budget: opts.Budget}, minDelta: opts.MinDelta},
		seen: make(map[conv.Config]bool),
		top:  bestK{k: opts.Walkers},
		// A warm search that may prune learns the floor residual (see Tune);
		// the bound-blind path has no floor to learn against.
		view: predictor{sp: sp, residual: opts.warm != nil && !opts.NoPrune, memo: make(map[conv.Config]float64)},
		pool: make(map[conv.Config]bool), tiles: make(map[tileKey]bool),
	}
}

// add books one outcome: into the record, into the training set, and a
// successful one into top. Its training target is the log-cost (failedCost
// for a failed config), less the log floor on a residual search; a row
// whose floor gives no baseline keeps failedCost.
func (s *search) add(c conv.Config, m Measurement, ok bool) {
	s.rec.add(c, m, ok)
	cost := failedCost
	if ok {
		s.top.push(scored{c, m.Seconds})
		cost = math.Log(m.Seconds)
		if s.view.residual {
			if base, has := s.sp.logFloor(c); has {
				cost -= base
			} else {
				cost = failedCost
			}
		}
	}
	s.markBooked(c)
	start := len(s.featStore)
	s.featStore = s.sp.FeaturesInto(s.featStore, c)
	s.feats = append(s.feats, s.featStore[start:len(s.featStore):len(s.featStore)])
	s.costs = append(s.costs, cost)
}

// book publishes the trace's progress after a booking.
func (s *search) book() {
	if s.opts.booked != nil {
		best := math.Inf(1)
		if s.rec.found {
			best = s.rec.trace.BestM.Seconds
		}
		s.opts.booked(s.rec.trace.Measurements, best)
	}
}

// replay books a resumed search's persisted history: every prior
// measurement is marked seen and booked into the trace and the training
// set without re-measuring, so continuing at a higher budget performs zero
// repeat measurements and the cost model picks up via Update on the
// replayed rows.
func (s *search) replay() {
	if s.opts.warm == nil || len(s.opts.warm.History) == 0 {
		return
	}
	for _, h := range s.opts.warm.History {
		if s.seen[h.Config] {
			continue
		}
		s.seen[h.Config] = true
		s.add(h.Config, h.M, h.OK)
	}
	s.rec.resumedAt = s.rec.trace.Measurements
	s.book()
}

// prune is the engine's one branch-and-bound predicate: once any
// configuration has been measured, a candidate whose pruning floor
// (Space.BoundSeconds) exceeds the incumbent cannot improve it. Such a
// candidate is counted and marked seen — the best only ever decreases, so
// it would be pruned again at any later threshold — and the caller skips it.
func (s *search) prune(c conv.Config) bool {
	if s.opts.NoPrune || !s.rec.found || !(s.sp.BoundSeconds(c) > s.rec.trace.BestM.Seconds) {
		return false
	}
	s.seen[c] = true
	s.rec.trace.Pruned++
	return true
}

// measure dedups the candidates against everything measured so far, drops
// the ones the lower bound proves non-improving, truncates to the remaining
// budget, fans the survivors across the executor's workers, and books the
// outcomes in submission order, asking the exact proofs after each: a proof
// ends the batch — and the search — at the booking that proves it. Only a
// contiguous prefix of the outcomes is booked (see fanBooked), under a
// proof or a cancelled ctx alike, so a partial trace stays coherent; the
// search reads nothing of the unbooked rest.
func (s *search) measure(ctx context.Context, cands []conv.Config) {
	if s.stopped || len(cands) == 0 {
		return
	}
	batch := s.batchBuf[:0]
	for _, c := range cands {
		if s.rec.trace.Measurements+len(batch) >= s.opts.Budget {
			break
		}
		if s.seen[c] || s.prune(c) {
			continue
		}
		s.seen[c] = true
		batch = append(batch, c)
	}
	s.batchBuf = batch
	if cap(s.resultBuf) < len(batch) {
		s.resultBuf = make([]outcome, len(batch))
	}
	results := s.resultBuf[:len(batch)]
	done := fanBooked(ctx, len(batch), s.opts.Workers, func(i int) {
		if s.opts.MeasureLatency > 0 {
			time.Sleep(s.opts.MeasureLatency)
		}
		results[i] = s.res.run(ctx, batch[i])
	}, func(i int) bool {
		out := results[i]
		last := s.rec.trace.ConvergedAt
		s.add(batch[i], out.m, out.ok)
		if slices.Contains(s.probed[:s.nprobed], batch[i]) {
			s.rec.trace.Probes.Measured++
			if s.rec.trace.ConvergedAt != last {
				s.rec.trace.Probes.Improved++
			}
		}
		s.rec.trace.Retries += out.retries
		s.rec.trace.Remeasured += out.remeasured
		if out.quarantined {
			s.rec.trace.Quarantined++
		}
		if s.opts.OnEvent != nil {
			if out.quarantined {
				s.opts.OnEvent(EventQuarantine)
			}
			for r := 0; r < out.retries; r++ {
				s.opts.OnEvent(EventRetry)
			}
			s.opts.OnEvent(EventMeasure)
		}
		return !s.stop(false)
	})
	if done > 0 {
		s.book()
	}
}

// designs proposes the coarse-grained Section 5 dataflow designs, the
// first measurements (unless opts.NoSeeds): the engine refines them, as in
// the paper.
func (s *search) designs() []conv.Config {
	if s.opts.NoSeeds {
		return nil
	}
	return s.sp.SeedConfigs()
}

// snapped proposes the warm seeds: other searches' cached verdicts snapped
// onto this space's axes; a seed that lands nowhere in the space inherits
// nothing. Each is shown to the proof (proof.show) as it is snapped, before
// anything is measured, so the Section-5 designs' bookings ask the proof
// already bounded by their floors.
func (s *search) snapped() []conv.Config {
	if s.opts.warm == nil {
		return nil
	}
	var snapped []conv.Config
	for _, w := range s.opts.warm.Seeds {
		if c, ok := s.sp.Snap(w); ok {
			snapped = append(snapped, c)
			if !s.opts.NoPrune {
				s.floors.show(s.sp, c)
			}
		}
	}
	return snapped
}

// initial proposes a cold start's random guesses, 3×Walkers of them (at
// most a quarter of the budget), which seed the walkers and the model. A
// genuinely warm start — snapped seeds (seeded) or a replayed history —
// proposes none: its incumbents are already populated, and the loop's
// diversity samples keep exploring, which is what lets a transferred layer
// retire after a handful of measurements once the bound filter proves
// nothing sampled can beat its incumbent.
func (s *search) initial(seeded bool) []conv.Config {
	n := min(3*s.opts.Walkers, s.opts.Budget/4)
	if seeded || s.rec.resumedAt > 0 {
		n = 0
	}
	s.candBuf = make([]conv.Config, 0, n) // later batches reuse it
	for range n {
		s.candBuf = append(s.candBuf, s.sp.Sample(s.rng))
	}
	return s.candBuf
}

// stop asks the search's stops and books the first that fires (see Tune); a
// booked stop is final, and every later call reports it without asking
// again. After a booking (between false) it asks the two exact proofs only.
// Between batches it asks, in order: exhaustion (the last walk proposed
// nothing), the budget and Patience (record.over), the trailing Patience of
// a Direct-led follower whose lead's incumbent after leadAhead times its
// measurements lies below its own, every proof, and cancellation.
func (s *search) stop(between bool) bool {
	if s.stopped {
		return true
	}
	t := &s.rec.trace
	switch {
	case between && s.exhausted:
		t.Stop = StopExhausted
	case between && s.rec.over(s.opts.Budget, s.opts.Patience):
	case between && s.opts.leadDirect && s.rec.stale(min(s.opts.Patience, 2*s.opts.BatchSize)) &&
		s.opts.lead(leadAhead*t.Measurements) < t.BestM.Seconds:
		t.Stop = StopPatience
	case s.proven(between):
	case between && s.ctx.Err() != nil:
		t.Stop = StopCancelled // the driver marks the trace Partial
	default:
		return false
	}
	s.stopped = true
	return true
}

// proven takes the stops on a proof (see Tune): it books the stop and
// reports true when one fires. After a booking it asks the certificate and
// a Direct-led follower's waiver; between batches also the gap stop and a
// Winograd-led follower's waiver. The certificate is asked only once the
// incumbent attains its own tight floor, which a certified one does.
// Bound-blind runs (NoPrune) have no oracle and never stop on a proof, and
// without Patience the gap stop has no schedule.
func (s *search) proven(between bool) bool {
	rec, opts, sp := s.rec, &s.opts, s.sp
	if opts.NoPrune || !rec.found {
		return false
	}
	r := rec.trace.BestM.Seconds
	if r <= sp.analyticFloor(rec.trace.Best) && s.floors.atLeast(sp, r) {
		rec.trace.Stop = StopCertified
		return true
	}
	if opts.lead != nil && (opts.leadDirect || between && s.floors.atLeast(sp, r/gapRatio)) {
		// The waiver: the lead's incumbent, never below its final
		// verdict, lies below every floor of the space.
		u := opts.lead(leadAhead * rec.trace.Measurements)
		if !math.IsInf(u, 1) && s.floors.atLeast(sp, math.Nextafter(u, math.Inf(1))) {
			rec.trace.Stop, rec.trace.GapRef, rec.trace.Waived = StopGap, u, true
			return true
		}
	}
	// Between batches the search has gone fewer than Patience flat
	// measurements (record.over comes first), so g(f) < G.
	if !between || opts.Patience == 0 || !s.floors.atLeast(sp, r/gapWait(rec.flat(), opts.Patience)) {
		return false
	}
	rec.trace.Stop, rec.trace.GapRef = StopGap, r
	return true
}

// warmStartRows is the dataset size below which a raw search fully refits.
const warmStartRows = 64

// walk proposes a loop batch. It refits the cost model when due (see Tune):
// a full retrain for a raw search below warmStartRows, where early trees
// overfit the first few measurements, and for a forest at its size cap
// (four times the default Trees); otherwise UpdateTrees fresh rounds once
// refitDue. Then it pools every unseen config the n_s parallel random walks (started
// from the best measured configs) visit, plus fresh random samples for
// diversity. The lower-bound oracle filters the pool as it forms (addCand),
// so the batched prediction ranks only configurations that could still
// win. It ranks the whole pool by predicted cost (exact cost ties fall back
// to the configLess total order, so the ranking is independent of map
// iteration order) and fills the batch in rank order, one configuration per
// tile but for a fresh incumbent's own (pickBatch); on a pruning search
// 2·BatchSize measurements flat whose budget covers the rest of its
// Patience window, the tile-shape probes take its last two slots (probes). An empty pool proposes nothing and marks the search
// exhausted.
func (s *search) walk() []conv.Config {
	if len(s.feats) == 0 {
		// Degenerate budgets can reach the loop before any measurement
		// (no seeds, zero initial randoms); feed the model one sample.
		s.candBuf = append(s.candBuf[:0], s.sp.Sample(s.rng))
		return s.candBuf
	}
	model, cfg := s.view.model, DefaultGBTConfig()
	small := model == nil || !s.view.residual && len(s.feats) < warmStartRows
	if small || refitDue(len(s.feats), model.NumRows()) {
		if small || model.NumTrees()+cfg.UpdateTrees > 4*cfg.Trees {
			model = TrainGBT(cfg, s.feats, s.costs)
		} else {
			model.Update(s.feats, s.costs, cfg.UpdateTrees)
		}
		s.rec.trace.Refits++
		s.view.refit(model)
	}
	clear(s.pool)
	s.startsBuf = s.top.sorted(s.startsBuf)
	for i := 0; i < s.opts.Walkers; i++ {
		cur := s.sp.Sample(s.rng)
		if i < len(s.startsBuf) {
			cur = s.startsBuf[i].cfg
		}
		curCost := s.view.predict(cur)
		for step := 0; step < s.opts.WalkSteps; step++ {
			next := s.sp.Neighbor(cur, s.rng)
			nextCost := s.view.predict(next)
			if nextCost < curCost || s.rng.Float64() < 0.1 {
				cur, curCost = next, nextCost
			}
			s.addCand(cur)
		}
	}
	for i := 0; i < 4*s.opts.BatchSize; i++ {
		s.addCand(s.sp.Sample(s.rng))
	}
	if len(s.pool) == 0 {
		s.exhausted = true
		return nil
	}
	s.ranked = s.view.rank(s.pool, s.ranked)
	refine := s.rec.found && s.rec.trace.Measurements-s.rec.sigAt < s.opts.BatchSize
	// A search 2·BatchSize flat is not refining its incumbent's tile.
	slots := 0
	if flat := s.rec.flat(); !s.opts.NoPrune && s.rec.found && flat >= 2*s.opts.BatchSize &&
		s.opts.Budget-s.rec.trace.Measurements >= s.opts.Patience-flat {
		slots = min(probeSlots, s.opts.BatchSize-1)
	}
	s.candBuf = pickBatch(s.candBuf, s.ranked, s.opts.BatchSize-slots, tileOf(s.rec.trace.Best), refine, s.tiles)
	s.nprobed = 0
	if slots > 0 {
		s.candBuf = s.probes(s.candBuf, slots)
	}
	return s.candBuf
}

// probeSlots is how many slots of a flat search's loop batch go to
// tile-shape probes.
const probeSlots = 2

// probes appends to batch, which pickBatch filled, up to slots tile-shape
// probes (see Tune): the representatives of the classes no booking has
// reached, least predicted cost first. A representative is skipped when it
// is of a tile the batch has taken (pickBatch's rule) or when its tight
// floor is not below the incumbent, so that it cannot improve it. The
// pruning floor is lower still, so the bound never prunes a probe, and no
// probe is seen: a seen configuration was booked, and so was its class, or
// pruned against an incumbent no lower than today's. The first probe of a
// search builds the class table and marks the classes its bookings reached;
// add marks them from then on.
func (s *search) probes(batch []conv.Config, slots int) []conv.Config {
	if s.classes == nil {
		s.classes = s.sp.shapeClasses(s.rec.trace.BestM.Seconds)
		s.booked = make([]bool, len(s.classes.reps))
		for _, h := range s.rec.trace.History {
			s.markBooked(h.Config)
		}
	}
	// The pool's ranking is spent (pickBatch read it): its buffer holds the
	// candidates.
	cands := s.ranked[:0]
	for i, rep := range s.classes.reps {
		if !s.booked[i] && rep.cost < s.rec.trace.BestM.Seconds && !s.tiles[tileOf(rep.cfg)] {
			cands = append(cands, scored{cfg: rep.cfg})
		}
	}
	s.view.score(cands)
	s.ranked = cands
	var best [probeSlots]scored
	n := 0
	for _, sc := range cands {
		if n < slots {
			n++
		} else if !scoredBefore(sc, best[n-1]) {
			continue
		}
		best[n-1] = sc
		for j := n - 1; j > 0 && scoredBefore(best[j], best[j-1]); j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	for _, sc := range best[:n] {
		s.tiles[tileOf(sc.cfg)] = true
		s.probed[s.nprobed] = sc.cfg
		s.nprobed++
		batch = append(batch, sc.cfg)
	}
	return batch
}

// markBooked marks the class of a booked configuration once the search
// has its class table. A configuration off the table (index -1) has no
// class to mark.
func (s *search) markBooked(c conv.Config) {
	if s.booked == nil {
		return
	}
	if i := s.classes.index(s.sp, c); i >= 0 {
		s.booked[i] = true
	}
}

// shapeClasses is a search's table of tile-shape classes, one per
// (round(log2(TileX/TileY)), TileZ, WinogradE) over the space's axes, built
// below a bound ub, the incumbent at the search's first probe. A class's
// representative is its least tileRates-bound tile that has a measurable
// configuration, at its measurable thread counts of least tight floor,
// scored with that floor; a class with no such tile below ub scores +Inf.
// The incumbent only falls, so a class left out could not improve it later
// either.
type shapeClasses struct {
	minAspect, aspects int
	reps               []scored
}

// aspect is round(log2(x/y)), a tile's class coordinate along its
// TileX:TileY ratio, for x ≥ 1 and y ≥ 1. No ratio of integers lies halfway,
// at 2^(k+½): k is the exponent with x²/y² in [2^(2k−1), 2^(2k+1)), within
// one of the bit lengths' difference.
func aspect(x, y int) int {
	if x < y {
		return -aspect(y, x)
	}
	x2, y2 := x*x, y*y
	k := bits.Len(uint(x)) - bits.Len(uint(y))
	if k > 0 && x2 < y2<<(2*k-1) {
		k--
	}
	if x2 >= y2<<(2*k+1) {
		k++
	}
	return k
}

// index is the class of c, or -1 when c is off the table: its tile edge or
// TileZ is not on the space's axes, or its aspect is outside theirs. A
// resumed search replays persisted rows, which may lie off the axes.
func (cl *shapeClasses) index(sp *Space, c conv.Config) int {
	z, onZ := slices.BinarySearch(sp.zs, c.TileZ)
	e := slices.Index(sp.row.edges, c.WinogradE)
	a := aspect(c.TileX, c.TileY) - cl.minAspect
	if !onZ || e < 0 || a < 0 || a >= cl.aspects {
		return -1
	}
	return (e*len(sp.zs)+z)*cl.aspects + a
}

// shapeClasses builds the class table of a search whose incumbent is ub.
//
// The build is the best-first walk (bestFirst) run class by class: a
// class's groups below ub, sorted by floor, are expanded in that order only
// while one could hold a tile that precedes every tile of the class
// expanded so far, and the class takes the first of those tiles that has a
// measurable configuration. A class's other groups are never floored tile
// by tile.
func (sp *Space) shapeClasses(ub float64) *shapeClasses {
	cl := &shapeClasses{}
	lo, hi := math.MaxInt, math.MinInt
	for _, e := range sp.row.edges {
		xs, ys := sp.xsByE[e], sp.ysByE[e]
		lo, hi = min(lo, aspect(xs[0], ys[len(ys)-1])), max(hi, aspect(xs[len(xs)-1], ys[0]))
	}
	cl.minAspect, cl.aspects = lo, hi-lo+1
	cl.reps = make([]scored, len(sp.row.edges)*len(sp.zs)*cl.aspects)
	for i := range cl.reps {
		cl.reps[i].cost = math.Inf(1)
	}
	// One buffer holds an edge's (x, y) tiles by aspect (the aspect in
	// bound), then a class's groups below ub, then their tiles.
	pairs := 0
	for _, e := range sp.row.edges {
		pairs = max(pairs, len(sp.xsByE[e])*len(sp.ysByE[e]))
	}
	buf := make([]tileBound, 0, pairs*(2+len(sp.sbs)*len(sp.row.layouts)))
	w := walk{sp: sp, ub: ub}
	divs := sp.divisors()
	for ei, e := range sp.row.edges {
		plane := buf[:0]
		for _, x := range sp.xsByE[e] {
			for _, y := range sp.ysByE[e] {
				plane = append(plane, tileBound{bound: float64(aspect(x, y)), x: int16(x), y: int16(y)})
			}
		}
		slices.SortFunc(plane, func(a, b tileBound) int { return cmp.Compare(a.bound, b.bound) })
		for _, z := range sp.zs {
			for start, end := 0, 0; start < len(plane); start = end {
				groups := plane[len(plane):len(plane)]
				for end = start; end < len(plane) && plane[end].bound == plane[start].bound; end++ {
					if g := w.group(ei, int(plane[end].x), int(plane[end].y), z); g.n > 0 && g.bound < ub {
						groups = append(groups, g)
					}
				}
				if len(groups) == 0 {
					continue
				}
				slices.SortFunc(groups, tileBound.compare)
				cl.reps[cl.index(sp, groups[0].config())] = w.leastOfClass(divs, groups, groups[len(groups):len(groups)])
			}
		}
	}
	return cl
}

// leastOfClass is the representative of the class whose groups are groups,
// sorted by compare: the first of their tiles in compare order that
// measures, at its thread counts of least tight floor (leastThreads),
// scored +Inf when none does. The tiles go in tiles' capacity.
func (w *walk) leastOfClass(divs map[int][]int, groups, tiles []tileBound) scored {
	next := 0
	for {
		least := -1
		for k, tb := range tiles {
			if least < 0 || tb.compare(tiles[least]) < 0 {
				least = k
			}
		}
		if next < len(groups) && (least < 0 || groups[next].compare(tiles[least]) < 0) {
			tiles = w.appendTiles(tiles, groups[next])
			next++
			continue
		}
		if least < 0 {
			return scored{cost: math.Inf(1)}
		}
		if r := w.sp.leastThreads(divs, tiles[least].config()); !math.IsInf(r.cost, 1) {
			return r
		}
		tiles[least] = tiles[len(tiles)-1]
		tiles = tiles[:len(tiles)-1]
	}
}

// leastThreads is tile t at its thread counts of least tight floor, the
// first in threadConfigs order among equals, scored with that floor; it
// scores +Inf where the tile does not measure. The validators read the
// thread counts only to bound them (at least 1, at most 1024 a block, as
// threadConfigs keeps them), so a tile's configurations measure alike; the
// tight floor reads them only through the launch's ThreadsPerBlock, so only
// the first thread counts of each product are floored: a later one ties it.
func (sp *Space) leastThreads(divs map[int][]int, t conv.Config) scored {
	var floored [1025]bool // by product
	least := scored{cost: math.Inf(1)}
	threadConfigs(divs, t, func(c conv.Config) bool {
		if n := c.Threads(); !floored[n] {
			floored[n] = true
			if f := sp.analyticFloor(c); f < least.cost {
				least = scored{c, f}
			}
		}
		return true
	})
	if math.IsInf(least.cost, 1) || !sp.measurable(least.cfg) {
		return scored{cost: math.Inf(1)}
	}
	return least
}

// addCand pools c unless it is measured, already pooled or pruned.
func (s *search) addCand(c conv.Config) {
	if s.seen[c] || s.pool[c] || s.prune(c) {
		return
	}
	s.pool[c] = true
}

// refitGrowth sets the refit cadence: a model fitted on n rows is refitted
// once max(1, n/refitGrowth) more have arrived.
const refitGrowth = 8

// failedCost is the training target of a configuration that failed to
// measure: a log-cost far above any real one.
const failedCost = 20.0

// refitDue reports whether a training set of rows rows has outgrown the
// model last fitted on fitted of them. Successive fits are then at least a
// factor 1+1/refitGrowth apart in rows — a geometric schedule — and at least
// one new row apart.
func refitDue(rows, fitted int) bool {
	return rows-fitted >= max(1, fitted/refitGrowth)
}

// predictor is the engine's view of the cost model between two refits: a
// configuration is featurized and predicted at most once, however often the
// walkers step onto it and whether or not it then reaches the ranking. A
// prediction is a pure function of the fitted forest and the configuration,
// and Predict and PredictBatch agree bit for bit, so reading one back from
// the memo cannot change a walker's move or a candidate's rank. On a
// residual search the model predicts the floor residual and the view adds
// the log floor back (see modeled).
type predictor struct {
	sp       *Space
	model    *GBTModel
	residual bool
	memo     map[conv.Config]float64

	feat []float64 // one configuration's features
	// The ranking's memo misses: their configurations, their feature matrix
	// (rows into one backing array) and its batched predictions.
	cfgs  []conv.Config
	feats [][]float64
	store []float64
	preds []float64
}

// refit points the view at a refitted model and forgets the old one's
// predictions.
func (p *predictor) refit(model *GBTModel) {
	p.model = model
	clear(p.memo)
}

// predict is the modeled cost of one configuration.
func (p *predictor) predict(c conv.Config) float64 {
	if v, ok := p.memo[c]; ok {
		return v
	}
	p.feat = p.sp.FeaturesInto(p.feat[:0], c)
	v := p.modeled(c, p.model.Predict(p.feat))
	p.memo[c] = v
	return v
}

// modeled is the cost of c the model's output v stands for: v itself on a
// raw search, v plus the log floor on a residual one, where a configuration
// whose floor gives no baseline ranks last.
func (p *predictor) modeled(c conv.Config, v float64) float64 {
	if !p.residual {
		return v
	}
	base, ok := p.sp.logFloor(c)
	if !ok {
		return math.Inf(1)
	}
	return v + base
}

// rank writes every pool member under its modeled cost into dst (recycled)
// in scoredBefore order and returns it; the members no walker predicted go
// through one PredictBatch.
func (p *predictor) rank(pool map[conv.Config]bool, dst []scored) []scored {
	dst = dst[:0]
	p.cfgs, p.feats, p.store = p.cfgs[:0], p.feats[:0], p.store[:0]
	for c := range pool {
		if v, ok := p.memo[c]; ok {
			dst = append(dst, scored{c, v})
			continue
		}
		p.miss(c)
	}
	p.preds = p.model.PredictBatch(p.feats, p.preds)
	for i, c := range p.cfgs {
		dst = append(dst, scored{c, p.modeled(c, p.preds[i])})
	}
	slices.SortFunc(dst, compareScored)
	return dst
}

// score sets the cost of every member of cs to its configuration's modeled
// cost and memoizes it; the ones the memo lacks go through one
// PredictBatch.
func (p *predictor) score(cs []scored) {
	p.cfgs, p.feats, p.store = p.cfgs[:0], p.feats[:0], p.store[:0]
	for _, s := range cs {
		if _, ok := p.memo[s.cfg]; !ok {
			p.miss(s.cfg)
		}
	}
	p.preds = p.model.PredictBatch(p.feats, p.preds)
	for i, c := range p.cfgs {
		p.memo[c] = p.modeled(c, p.preds[i])
	}
	for i := range cs {
		cs[i].cost = p.memo[cs[i].cfg]
	}
}

// miss queues c, a configuration the memo lacks, for the batched prediction.
func (p *predictor) miss(c conv.Config) {
	p.cfgs = append(p.cfgs, c)
	start := len(p.store)
	p.store = p.sp.FeaturesInto(p.store, c)
	p.feats = append(p.feats, p.store[start:len(p.store):len(p.store)])
}

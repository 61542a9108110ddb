package autotune

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// Measurement is the outcome of measuring one configuration on the
// simulated hardware (the template manager's job in Figure 8).
type Measurement struct {
	Seconds float64
	GFLOPS  float64
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
	// model ranks a candidate pool and the BatchSize most promising members
	// are measured together. (The cost model is refitted as the training set
	// grows, not per batch — see Tune.)
	BatchSize int
	// Walkers is n_s, the number of parallel random walks of the explorer.
	Walkers int
	// WalkSteps is how many model-guided steps each walker takes per
	// iteration.
	WalkSteps int
	// Patience stops the run after this many measurements without
	// improvement (0 disables).
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
	// convergence curve and every other engine output are bit-identical for
	// any worker count given a fixed Seed: candidates are chosen before the
	// batch is dispatched and outcomes are recorded in submission order.
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
	return Options{Budget: 400, BatchSize: 8, Walkers: 8, WalkSteps: 24, Patience: 120, Seed: 1, Workers: 1}
}

func (o Options) normalized() Options {
	if o.Budget < 1 {
		o.Budget = 1
	}
	if o.BatchSize < 1 {
		o.BatchSize = 1
	}
	if o.Walkers < 1 {
		o.Walkers = 1
	}
	if o.WalkSteps < 1 {
		o.WalkSteps = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Trace records a tuning run: the best configuration found and the
// best-so-far curve per measurement (Figure 11's series).
type Trace struct {
	Method       string
	Best         conv.Config
	BestM        Measurement
	Curve        []float64 // best GFLOPS after each measurement
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
	// Stop says why the run ended. In memory only, like Refits.
	Stop StopReason
	// GapRef is the reference the gap proof held against when Stop is
	// StopGap — the incumbent's seconds, or on a stale follower the lower of
	// that and its layer lead's incumbent at leadAhead times its own
	// measurements: no measurable configuration has a tight floor below
	// GapRef / 1.3. On a waived stop it is that lead incumbent, below every
	// tight floor. 0 on every other stop; in memory only, like Stop.
	GapRef float64
	// Waived is set on a gap stop taken before the search went stale: its
	// layer lead's incumbent lies below every tight floor of the space, so
	// the kind cannot win the layer. Under a Winograd lead the search's own
	// incumbent also proves the gap; under a Direct lead, which every
	// request reads, it need not. In memory only, like Stop.
	Waived bool
}

// StopReason is why a tuning run ended.
type StopReason uint8

const (
	// StopBudget: the run spent its measurement budget.
	StopBudget StopReason = iota
	// StopPatience: Patience measurements passed without a significant
	// improvement.
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
	// StopGap: the search went stale and no measurable configuration has a
	// tight floor below its reference over gapRatio, so nothing left can
	// move its layer's verdict by more than that factor (Trace.GapRef); or
	// its kind cannot win its layer (Trace.Waived).
	StopGap
)

// gapRatio (G) and gapStale (F, a fraction of Patience) set the gap stop,
// and leadAhead how far ahead of a follower its lead's incumbent is read for
// the waiver, as a multiple of the follower's measurements (see Tune).
const (
	gapRatio  = 1.3
	gapStale  = 0.75
	leadAhead = 2
)

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
	r.trace.Curve = append(r.trace.Curve, r.trace.BestM.GFLOPS)
}

// incumbentBefore reports whether a measurement of c at seconds t displaces
// an incumbent best at bt: it is faster, or as fast and first in configLess
// order — so the verdict is a function of the measured set, not of the order
// the walk measured it in. record.add and curveOf share it.
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
	since := r.sigAt
	if r.resumedAt > since {
		since = r.resumedAt
	}
	return patience > 0 && r.found && r.trace.Measurements-since >= patience
}

// Tune runs the paper's auto-tuning engine (Figure 8): iterate
// {refit the cost model when enough new measurements have arrived; explore
// with n_s parallel model-guided random walks from the current best
// configurations; measure the proposals; update the dataset} until one of
// four stops: the budget is spent (StopBudget), patience is exhausted
// (StopPatience), the incumbent is proven optimal (StopCertified), or the
// bound proves that nothing left can move the layer's verdict by more than
// 1.3× (StopGap). Each batch of proposals is measured by the
// worker-pool executor (opts.Workers goroutines); outcomes are recorded in
// submission order, so the run is deterministic for a fixed seed at any
// worker count.
//
// Six things keep the engine's own machinery off the critical path:
//
//   - The stops on a proof (unless opts.NoPrune): between batches the
//     search asks one proof about m, the least tight floor over the space's
//     measurable configurations (Space.minFloor). The certificate asks,
//     once the incumbent's measured time t attains its own tight floor
//     (analyticFloor, no scan), whether t ≤ m: floor ≤ measurement holds
//     for every configuration, so then nothing can beat it, and the run
//     stops with Trace.Stop = StopCertified. The gap stop asks, once the
//     search has gone ¾ of Patience fresh measurements without a
//     significant improvement, whether r/1.3 ≤ m for a reference r — the
//     incumbent's seconds, or on a follower the lower of that and u, its
//     layer lead's incumbent after twice the follower's measurements (the
//     lead's final verdict where it stops short; the network sweep makes the
//     layer's Winograd search its lead where it has one, its Direct search
//     otherwise), waiting for the lead to get there. Then no measurement
//     left can move the layer's verdict by more than a factor 1.3, and the
//     run stops with Trace.Stop = StopGap and Trace.GapRef = r. The waiver
//     asks, on a follower not yet stale, whether u < m: then the lead's
//     verdict, ≤ u, lies below every floor, the kind cannot win the layer,
//     and the run stops with Trace.Waived and Trace.GapRef = u. Every
//     request searches Direct and answers the least verdict over its kinds,
//     so a Direct-led follower waived so is never any reply's answer. A
//     Winograd-led one is waived only where its own incumbent also proves
//     the gap, r/1.3 ≤ m: a "winograd": false request reads it without its
//     lead, and gets a verdict within 1.3 of its optimum. The
//     proof keeps a lower bound on m and whether it is m itself, and scans
//     only when asked above an inexact bound, cut at the asked value: a scan
//     that finds a floor below it has found m, and one that finds none
//     raises the bound to it. Every answer is a function of m, the booked
//     prefix and the lead's progress — a function of the lead's own trace —
//     so the stops fire at the same measurement at any worker count.
//   - Bound-guided pruning (unless opts.NoPrune): the I/O-lower-bound
//     oracle (Space.BoundSeconds) filters the candidate pool as it forms,
//     before the batched ranking prediction; the walkers themselves step
//     freely, warm or cold. The measurement batch asks the same predicate:
//     nothing is measured between pool formation and the batch, so on a
//     loop batch it cannot fire again — it is the only gate the Section 5
//     seed, transferred-seed and initial-random batches pass through.
//     Provably-worse candidates are counted in Trace.Pruned. Because the
//     bound is a true floor on every measurement, pruning can never
//     discard a configuration that would have improved the verdict.
//   - Warm-started cost model: the GBT forest is kept across iterations
//     and refit incrementally (GBTModel.Update) on the grown dataset, with
//     a full retrain only when the forest would exceed its size cap.
//   - Amortised refits: past the first warmStartRows rows (from the first
//     fit on a residual search) the model is refitted only when the training
//     set has grown by an eighth since the last fit, so the fits of a search
//     number O(log budget) and each sees a batch of rows big enough to move
//     it; between fits the walkers keep the model and its prediction memo.
//     Trace.Refits counts them.
//   - Heap-based ranking: walker proposals and the best-measured set are
//     maintained by bounded max-heaps with recycled backing arrays
//     instead of full sorts.
//   - One prediction per configuration per refit: the walkers and the
//     ranking read the model through a memo (predictor) that is cleared
//     whenever the model changes.
//
// A warm start (set only by TuneNetwork's warm searches and the cache's
// resume road) transfers state from related searches: other searches'
// cached verdicts, snapped into the space, ranked by floor × measured/floor
// ratio and measured first (replacing the cold start's random guesses), or a
// persisted history, replayed without
// re-measuring so a cached search resumes at a higher budget. A warm search
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
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "ate", Budget: opts.Budget}, minDelta: opts.MinDelta}

	warm := opts.warm
	resume := warm != nil && len(warm.History) > 0
	// residual: the model learns the floor residual (see Tune); the
	// bound-blind path has no floor to learn against.
	residual := warm != nil && !opts.NoPrune

	// Training rows are slices into one growing backing array (featStore):
	// featurizing a measurement appends NumFeatures floats instead of
	// allocating a fresh vector per config.
	var feats [][]float64
	var featStore []float64
	var costs []float64
	seen := make(map[conv.Config]bool)
	// top holds the best measured configs (by real cost); they re-seed the
	// walkers each iteration — the paper's "promising configurations are
	// saved as the initial guesses for the next searching step".
	var top bestK
	top.reset(opts.Walkers)

	// addRow books one measurement into the training set, and a successful
	// one into top. Its target is the log-cost (failedCost for a failed
	// config), less the log floor on a residual search; a row whose floor
	// gives no baseline keeps failedCost.
	addRow := func(c conv.Config, m Measurement, ok bool) {
		cost := failedCost
		if ok {
			top.push(scored{c, m.Seconds})
			cost = math.Log(m.Seconds)
			if residual {
				if base, has := sp.logFloor(c); has {
					cost -= base
				} else {
					cost = failedCost
				}
			}
		}
		start := len(featStore)
		featStore = sp.FeaturesInto(featStore, c)
		feats = append(feats, featStore[start:len(featStore):len(featStore)])
		costs = append(costs, cost)
	}

	// res is the fault-tolerance pipeline around the measurer: retry with
	// seeded backoff, quarantine, noisy-reading defense. With the zero
	// RetryPolicy and an error-free measurer every run() is exactly one
	// measure() call, so the default path is untouched.
	res := newResilient(measure, sp, opts.Retry, opts.Seed)

	// prune is the engine's one branch-and-bound predicate: once any
	// configuration has been measured, a candidate whose pruning floor
	// (Space.BoundSeconds) exceeds the incumbent cannot improve it. Such a
	// candidate is counted and marked seen — the best only ever decreases,
	// so it would be pruned again at any later threshold — and the caller
	// skips it.
	prune := func(c conv.Config) bool {
		if opts.NoPrune || !rec.found || !(sp.BoundSeconds(c) > rec.trace.BestM.Seconds) {
			return false
		}
		seen[c] = true
		rec.trace.Pruned++
		return true
	}

	// proven takes the stops on a proof (see Tune), asking the search's one
	// proof about m, the space's least tight floor: it books the stop and
	// reports true when one fires. The certificate is asked only once the
	// incumbent attains its own tight floor, which a certified one does. A
	// follower reads its lead's incumbent after leadAhead times its own
	// measurements: once stale as the lower reference r, before that for
	// the waiver, where its lead is Direct or its own incumbent proves the
	// gap. Bound-blind runs (NoPrune) have no oracle and never stop on a
	// proof.
	var floors proof
	staleAfter := int(gapStale * float64(opts.Patience))
	proven := func() bool {
		if opts.NoPrune || !rec.found {
			return false
		}
		r := rec.trace.BestM.Seconds
		if r <= sp.analyticFloor(rec.trace.Best) && floors.atLeast(sp, r) {
			rec.trace.Stop = StopCertified
			return true
		}
		stale := rec.stale(staleAfter)
		if stale && opts.lead != nil {
			r = min(r, opts.lead(leadAhead*rec.trace.Measurements))
		}
		if (!stale && opts.lead == nil) || ((stale || !opts.leadDirect) && !floors.atLeast(sp, r/gapRatio)) {
			return false
		}
		if !stale {
			// The waiver: the lead's incumbent, never below its final
			// verdict, lies below every floor of the space.
			u := opts.lead(leadAhead * rec.trace.Measurements)
			if math.IsInf(u, 1) || !floors.atLeast(sp, math.Nextafter(u, math.Inf(1))) {
				return false
			}
			rec.trace.Waived, r = true, u
		}
		rec.trace.Stop, rec.trace.GapRef = StopGap, r
		return true
	}
	// book publishes the trace's progress after a booking.
	book := func() {
		if opts.booked != nil {
			best := math.Inf(1)
			if rec.found {
				best = rec.trace.BestM.Seconds
			}
			opts.booked(rec.trace.Measurements, best)
		}
	}

	// measureBatch dedups the candidates against everything measured so
	// far, drops the ones the lower bound proves non-improving, truncates
	// to the remaining budget, fans the survivors across the executor's
	// workers, and books the outcomes in submission order. The batch and
	// result buffers are reused across calls. Under a cancelled batchCtx
	// only the contiguous prefix of completed outcomes is booked (see
	// fanIndexedCtx), keeping a partial trace coherent.
	var batchBuf []conv.Config
	var resultBuf []outcome
	measureBatch := func(batchCtx context.Context, cands []conv.Config) {
		batch := batchBuf[:0]
		for _, c := range cands {
			if rec.trace.Measurements+len(batch) >= opts.Budget {
				break
			}
			if seen[c] || prune(c) {
				continue
			}
			seen[c] = true
			batch = append(batch, c)
		}
		batchBuf = batch
		if cap(resultBuf) < len(batch) {
			resultBuf = make([]outcome, len(batch))
		}
		resultBuf = resultBuf[:len(batch)]
		done := fanIndexedCtx(batchCtx, len(batch), opts.Workers, func(i int) {
			if opts.MeasureLatency > 0 {
				time.Sleep(opts.MeasureLatency)
			}
			resultBuf[i] = res.run(batchCtx, batch[i])
		})
		for i, c := range batch[:done] {
			out := resultBuf[i]
			rec.add(c, out.m, out.ok)
			rec.trace.Retries += out.retries
			rec.trace.Remeasured += out.remeasured
			if out.quarantined {
				rec.trace.Quarantined++
			}
			if opts.OnEvent != nil {
				if out.quarantined {
					opts.OnEvent(EventQuarantine)
				}
				for r := 0; r < out.retries; r++ {
					opts.OnEvent(EventRetry)
				}
				opts.OnEvent(EventMeasure)
			}
			addRow(c, out.m, out.ok)
		}
		if done > 0 {
			book()
		}
	}

	// The cost model is warm-started: the forest persists across
	// iterations and each refit boosts UpdateTrees fresh rounds against
	// the residuals over the grown dataset. Two situations fall back to a
	// full retrain: on a raw search, tiny datasets (below warmStartRows a
	// full fit is cheap and early trees overfit the first few measurements,
	// so keeping them hurts guidance exactly when each measurement matters
	// most — there the model is refitted every batch), and a forest at its
	// size cap (prediction cost grows with forest size). Otherwise a refit
	// waits until the training set has grown by 1/refitGrowth since the
	// model last ingested it (refitDue). A residual search starts from the
	// floor, which already ranks its first rows, so it is geometric from its
	// first fit.
	gcfg := DefaultGBTConfig()
	updateRounds := gcfg.UpdateTrees
	if updateRounds < 1 {
		updateRounds = 8
	}
	maxForest := 4 * gcfg.Trees
	const warmStartRows = 64
	var model *GBTModel

	if resume {
		// Replay the persisted history: every prior measurement is marked
		// seen and booked into the trace and the training set without
		// re-measuring, so continuing at a higher budget performs zero
		// repeat measurements and the cost model picks up via Update on
		// the replayed rows.
		for _, h := range warm.History {
			if seen[h.Config] {
				continue
			}
			seen[h.Config] = true
			rec.add(h.Config, h.M, h.OK)
			addRow(h.Config, h.M, h.OK)
		}
		rec.resumedAt = rec.trace.Measurements
		book()
	}

	// The coarse-grained Section 5 dataflow designs are the first
	// measurements — the engine refines them, as in the paper — followed
	// by transferred incumbents (snapped onto this space's axes) and, on a
	// cold start, 3x Walkers random guesses that seed the walkers and the
	// model. A genuinely warm start (transferred seeds or a replayed
	// history) drops the random phase entirely: the incumbents are already
	// populated, and the per-iteration diversity samples inside the loop
	// keep exploring — which is what lets a transferred layer retire after a
	// handful of measurements once the bound filter proves nothing sampled
	// can beat its incumbent.
	if !opts.NoSeeds {
		// The seed batch runs unconditionally — even under an
		// already-expired ctx — so a deadline-bounded run over a space with
		// valid seeds always has a verdict to report.
		measureBatch(context.Background(), sp.SeedConfigs())
	}
	seeded := false
	if warm != nil && len(warm.Seeds) > 0 {
		snapped := make([]conv.Config, 0, len(warm.Seeds))
		for _, s := range warm.Seeds {
			if c, ok := sp.Snap(s); ok {
				snapped = append(snapped, c)
			}
		}
		// Seeds that cannot land anywhere in this space inherit nothing;
		// only an actually-snapped seed counts as a warm start below.
		seeded = len(snapped) > 0
		measureBatch(ctx, snapped)
	}
	initRandom := 3 * opts.Walkers
	if resume || seeded {
		initRandom = 0
	}
	if b := opts.Budget / 4; b < initRandom {
		initRandom = b
	}
	initial := make([]conv.Config, 0, initRandom)
	for i := 0; i < initRandom; i++ {
		initial = append(initial, sp.Sample(rng))
	}
	measureBatch(ctx, initial)

	// Scratch reused across iterations: the model's prediction memo, the
	// candidate pool, and the bounded heaps with their extraction buffers.
	view := predictor{sp: sp, residual: residual, memo: make(map[conv.Config]float64)}
	pool := make(map[conv.Config]bool)
	var rank bestK
	var startsBuf, pickedBuf []scored
	var candBuf []conv.Config
	for !rec.over(opts.Budget, opts.Patience) {
		if proven() {
			break
		}
		if ctx.Err() != nil {
			break // deadline or cancellation: report best-so-far below
		}
		if len(feats) == 0 {
			// Degenerate budgets can reach the loop before any measurement
			// (no seeds, zero initial randoms); feed the model one sample.
			measureBatch(ctx, []conv.Config{sp.Sample(rng)})
			continue
		}
		small := model == nil || (!residual && len(feats) < warmStartRows)
		if small || refitDue(len(feats), model.NumRows()) {
			if small || model.NumTrees()+updateRounds > maxForest {
				model = TrainGBT(gcfg, feats, costs)
			} else {
				model.Update(feats, costs, updateRounds)
			}
			rec.trace.Refits++
			view.refit(model)
		}
		// Build a candidate pool: every unseen config visited by the n_s
		// parallel random walks (started from the best measured configs),
		// plus fresh random samples for diversity. The lower-bound oracle
		// filters the pool as it forms — a candidate whose (Sb, e) tier
		// floor already exceeds the incumbent is discarded (and counted
		// pruned) before it can occupy a ranking slot, so the batched
		// prediction ranks only configurations that could still win.
		clear(pool)
		addCand := func(c conv.Config) {
			if seen[c] || pool[c] || prune(c) {
				return
			}
			pool[c] = true
		}
		starts := top.sorted(startsBuf)
		startsBuf = starts
		for i := 0; i < opts.Walkers; i++ {
			start := sp.Sample(rng)
			if i < len(starts) {
				start = starts[i].cfg
			}
			cur := start
			curCost := view.predict(cur)
			for step := 0; step < opts.WalkSteps; step++ {
				next := sp.Neighbor(cur, rng)
				nextCost := view.predict(next)
				if nextCost < curCost || rng.Float64() < 0.1 {
					cur, curCost = next, nextCost
				}
				addCand(cur)
			}
		}
		for i := 0; i < 4*opts.BatchSize; i++ {
			addCand(sp.Sample(rng))
		}
		if len(pool) == 0 {
			rec.trace.Stop = StopExhausted
			break
		}
		// Rank the pool by predicted cost: a bounded heap keeps the BatchSize
		// most promising (exact cost ties fall back to the configLess total
		// order, so the pick is independent of map iteration order).
		rank.reset(opts.BatchSize)
		view.rank(pool, &rank)
		picked := rank.sorted(pickedBuf)
		pickedBuf = picked
		candBuf = candBuf[:0]
		for _, s := range picked {
			candBuf = append(candBuf, s.cfg)
		}
		measureBatch(ctx, candBuf)
	}
	if !rec.found {
		return nil, fmt.Errorf("autotune: no valid configuration found in %d measurements", rec.trace.Measurements)
	}
	if ctx.Err() != nil && rec.trace.Measurements < opts.Budget && rec.trace.Stop != StopCertified && rec.trace.Stop != StopGap {
		// Cut short: the verdict is best-so-far, and the honest budget for a
		// persisted trace is what actually ran — a repeat request resumes
		// the search instead of trusting truncated coverage.
		rec.trace.Partial = true
		rec.trace.Budget = rec.trace.Measurements
		rec.trace.Stop = StopCancelled
	}
	return &rec.trace, nil
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

// rank offers every pool member to the heap under its modeled cost; the
// members no walker predicted go through one PredictBatch.
func (p *predictor) rank(pool map[conv.Config]bool, rank *bestK) {
	p.cfgs, p.feats, p.store = p.cfgs[:0], p.feats[:0], p.store[:0]
	for c := range pool {
		if v, ok := p.memo[c]; ok {
			rank.push(scored{c, v})
			continue
		}
		p.cfgs = append(p.cfgs, c)
		start := len(p.store)
		p.store = p.sp.FeaturesInto(p.store, c)
		p.feats = append(p.feats, p.store[start:len(p.store):len(p.store)])
	}
	p.preds = p.model.PredictBatch(p.feats, p.preds)
	for i, c := range p.cfgs {
		rank.push(scored{c, p.modeled(c, p.preds[i])})
	}
}

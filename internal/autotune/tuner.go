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
// cross-layer warm pools and of cache-persisted resume.
type MeasuredConfig struct {
	Config conv.Config
	M      Measurement
	OK     bool
}

// WarmStart is the transfer seam of Tune: everything a search may inherit
// from related, already-finished searches instead of starting cold.
type WarmStart struct {
	// Feats/Costs are prior training rows for the cost model, in this
	// space's feature encoding with costs normalized to zero mean per
	// source layer (the model only ranks candidates within one layer, so
	// only relative cost transfers). The engine's initial model is the fit
	// on exactly these rows — a pure function of them — and continues via
	// GBTModel.Update as its own measurements arrive. A WarmStart built by
	// hand has the search fit that model itself; one handed out by
	// TuneNetwork's transfer pool carries the family's shared prior, fitted
	// once per sweep by whichever search needs it first — or rebuilt from the
	// cache's memo when an earlier sweep fitted the same rows — which every
	// search borrows, copying it only to refit (bit-identical to its own fit).
	Feats [][]float64
	Costs []float64
	// Seeds are incumbent configurations from related layers. They are
	// snapped onto this space's axes and measured first, so the walkers
	// start from transferred incumbents instead of random guesses.
	Seeds []conv.Config
	// History is this exact key's own prior measurement stream (from a
	// persisted cache entry). It is replayed — marked seen, booked into
	// the trace and the training set — without re-measuring anything, so a
	// resumed search at a higher budget continues where it stopped. When
	// History is set, Feats/Costs are ignored: the key's own rows beat
	// transferred ones.
	History []MeasuredConfig
	// prior, set by the transfer pool alone, is the shared fit on
	// Feats/Costs a search borrows instead of fitting its own.
	prior *sharedPrior
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
	// Warm, when non-nil, warm-starts the search: prior model rows, seed
	// configurations from related layers, and/or this key's own persisted
	// history to resume from. nil reproduces the cold engine bit-for-bit.
	Warm *WarmStart
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
	// history included, on a resumed run). Cache.PutTrace persists it and
	// the network tuner's transfer pool is built from it.
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
	// fits and incremental Updates alike; a transfer pool's shared prior,
	// borrowed or copied, is not a fit. In memory only: a cache entry does not
	// persist it.
	Refits int
	// Stop says why the run ended. In memory only, like Refits.
	Stop StopReason
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
	// StopExhausted: no unseen configuration that could still win was left
	// to propose.
	StopExhausted
	// StopCancelled: the context was cancelled or its deadline passed
	// (Trace.Partial).
	StopCancelled
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
	if ok && (!r.found || m.Seconds < r.trace.BestM.Seconds) {
		if !r.found || r.trace.BestM.Seconds-m.Seconds > r.minDelta*r.trace.BestM.Seconds {
			r.sigAt = r.trace.Measurements
		}
		r.found = true
		r.trace.Best = c
		r.trace.BestM = m
		r.trace.ConvergedAt = r.trace.Measurements
	}
	r.trace.Curve = append(r.trace.Curve, r.trace.BestM.GFLOPS)
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
// configurations; measure the proposals; update the dataset} until the budget
// or patience is exhausted, or the incumbent is proven optimal. Each batch of proposals is measured by the
// worker-pool executor (opts.Workers goroutines); outcomes are recorded in
// submission order, so the run is deterministic for a fixed seed at any
// worker count.
//
// Six things keep the engine's own machinery off the critical path:
//
//   - The certificate stop (unless opts.NoPrune): between batches, once
//     the incumbent's measured time is at or below the minimum tight floor
//     (analyticFloor) over the space's measurable configurations, no
//     configuration can beat it — floor ≤ measurement holds for every one —
//     and the run stops with Trace.Stop = StopCertified. It reads the booked
//     prefix only, so it fires at the same measurement at any worker count.
//     The scan behind it is gated: a certified incumbent attains its own
//     tight floor, so nothing is scanned until one does, and the scan
//     (Space.minFloor) is seeded with that floor. It visits the tiles in
//     order of their thread-free floor bound and stops at the first one
//     whose bound cannot lower the running minimum.
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
//   - Amortised refits: past the first warmStartRows rows the model is
//     refitted only when the training set — transferred rows included — has
//     grown by an eighth since the last fit, so the fits of a search number
//     O(log budget) and each sees a batch of rows big enough to move it;
//     between fits the walkers keep the model and its prediction memo.
//     Trace.Refits counts them.
//   - Heap-based ranking: walker proposals and the best-measured set are
//     maintained by bounded max-heaps with recycled backing arrays
//     instead of full sorts.
//   - One prediction per configuration per refit: the walkers and the
//     ranking read the model through a memo (predictor) that is cleared
//     whenever the model changes.
//
// A non-nil opts.Warm transfers state from related searches: prior model
// rows fit the initial cost model (once per family per sweep when the
// WarmStart comes from TuneNetwork's pool, whose prior the search borrows
// and copies only for its first Update), transferred incumbent configs are
// snapped into the space and measured first (replacing most of the cold
// start's random guesses), and a persisted history replays without
// re-measuring so a cached search resumes at a higher budget. With
// opts.Warm nil the engine is bit-identical to the cold path.
func Tune(sp *Space, measure Measurer, opts Options) (*Trace, error) {
	return TuneContext(context.Background(), sp, measure, opts)
}

// TuneContext is Tune bounded by a context: when ctx is cancelled or its
// deadline passes, the run stops claiming new measurements (in-flight ones
// finish — a device run cannot be recalled) and returns the best-so-far
// verdict with Trace.Partial set instead of an error, provided at least one
// valid configuration measured. The Section 5 seed configurations are
// always measured, even under an already-expired context, so any run over a
// space with valid seeds produces a verdict.
func TuneContext(ctx context.Context, sp *Space, measure Measurer, opts Options) (*Trace, error) {
	return TuneFallible(ctx, sp, LiftMeasurer(measure), opts)
}

// TuneFallible is the engine itself, over the error-aware measurement seam
// (Tune and TuneContext lift a plain Measurer into it): the measurer may
// report transient failures, which the engine retries, backs off and
// quarantines per opts.Retry. See FallibleMeasurer and RetryPolicy.
func TuneFallible(ctx context.Context, sp *Space, measure FallibleMeasurer, opts Options) (*Trace, error) {
	opts = opts.normalized()
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := &record{trace: Trace{Method: "ate", Budget: opts.Budget}, minDelta: opts.MinDelta}

	warm := opts.Warm
	resume := warm != nil && len(warm.History) > 0
	transfer := warm != nil && !resume &&
		len(warm.Feats) > 0 && len(warm.Feats) == len(warm.Costs)

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

	// Transferred rows live on a per-source-layer normalized cost scale
	// (zero mean); the layer's own rows are re-centered by the first
	// successful measurement's log-cost so both populations are
	// commensurable. Predictions are only ever compared between candidates
	// of this one layer, so a constant offset never changes a ranking. On
	// the cold path the offset stays 0 and rows are raw log-seconds,
	// bit-identical to the pre-warm engine.
	costOffset, offsetSet := 0.0, !transfer

	addRow := func(c conv.Config, cost float64) {
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

	// certified is the engine's stop on a proof: the incumbent's measured
	// time is at or below the minimum tight floor of the whole space
	// (Space.minFloor), and floor ≤ measurement holds for every
	// configuration, so nothing unmeasured can beat it. It is asked between
	// batches, of the booked prefix only, so it fires at the same measurement
	// at any worker count. The scan is gated: floor ≤ measurement means a
	// certified incumbent attains its own tight floor, so nothing is scanned
	// until one does, and the scan is seeded with that floor. A scan that
	// finds a lower floor has found the space's minimum, kept for the rest of
	// the run. Bound-blind runs (NoPrune) have no oracle and never stop on it.
	scanned, floorMin := false, 0.0
	certified := func() bool {
		if opts.NoPrune || !rec.found {
			return false
		}
		t := rec.trace.BestM.Seconds
		if !scanned {
			f := sp.analyticFloor(rec.trace.Best)
			if t > f {
				return false
			}
			floorMin, scanned = sp.minFloor(f), true
		}
		return t <= floorMin
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
			cost := 20.0 // a large log-cost for failed configs
			if out.ok {
				cost = math.Log(out.m.Seconds)
				if !offsetSet {
					costOffset, offsetSet = cost, true
				}
				cost -= costOffset
				top.push(scored{c, out.m.Seconds})
			}
			addRow(c, cost)
		}
	}

	// The cost model is warm-started: the forest persists across
	// iterations and each refit boosts UpdateTrees fresh rounds against
	// the residuals over the grown dataset. Two situations fall back to a
	// full retrain: tiny datasets (below warmStartRows a full fit is cheap
	// and early trees overfit the first few measurements, so keeping them
	// hurts guidance exactly when each measurement matters most — there the
	// model is refitted every batch) and a forest at its size cap
	// (prediction cost grows with forest size). Past warmStartRows a refit
	// waits until the training set has grown by 1/refitGrowth since the
	// model last ingested it. The growth is measured against all the rows
	// the model holds, transferred ones included: what a fit costs and how
	// little a few fresh rows can move it both scale with that total.
	gcfg := DefaultGBTConfig()
	updateRounds := gcfg.UpdateTrees
	if updateRounds < 1 {
		updateRounds = 8
	}
	maxForest := 4 * gcfg.Trees
	const warmStartRows = 64
	var model *GBTModel
	borrowed := false // model is the pool's shared prior, read-only, until a refit

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
			cost := 20.0
			if h.OK {
				cost = math.Log(h.M.Seconds)
				top.push(scored{h.Config, h.M.Seconds})
			}
			addRow(h.Config, cost)
		}
		rec.resumedAt = rec.trace.Measurements
	} else if transfer {
		// The initial cost model is the fit on the transferred rows — the
		// pool's shared one when there is one, borrowed until the first
		// Update clones it; the layer's own rows append behind them, so
		// every later refit continues via GBTModel.Update over the combined
		// dataset.
		feats = append(make([][]float64, 0, len(warm.Feats)+opts.Budget), warm.Feats...)
		costs = append(make([]float64, 0, len(warm.Costs)+opts.Budget), warm.Costs...)
		if warm.prior != nil {
			model, borrowed = warm.prior.borrow(gcfg, warm.Feats, warm.Costs), true
		} else {
			model = TrainGBT(gcfg, feats, costs)
			rec.trace.Refits++
		}
	}

	// The coarse-grained Section 5 dataflow designs are the first
	// measurements — the engine refines them, as in the paper — followed
	// by transferred incumbents (snapped onto this space's axes) and, on a
	// cold start, 3x Walkers random guesses that seed the walkers and the
	// model. A genuinely warm start (prior rows, transferred seeds or a
	// replayed history) drops the random phase entirely: the model and the
	// incumbents are already populated, and the per-iteration diversity
	// samples inside the loop keep exploring — which is what lets a
	// transferred layer retire after a handful of measurements once the
	// bound filter proves nothing sampled can beat its incumbent.
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
	if resume || transfer || seeded {
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
	// The view starts on the transferred prior (if any): a warm search's first
	// iterations are not due a refit.
	view := predictor{sp: sp, model: model, memo: make(map[conv.Config]float64)}
	pool := make(map[conv.Config]bool)
	var rank bestK
	var startsBuf, pickedBuf []scored
	var candBuf []conv.Config
	for !rec.over(opts.Budget, opts.Patience) {
		if certified() {
			rec.trace.Stop = StopCertified
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
		small := model == nil || len(feats) < warmStartRows
		if small || refitDue(len(feats), model.NumRows()) {
			if small || model.NumTrees()+updateRounds > maxForest {
				model = TrainGBT(gcfg, feats, costs)
			} else {
				if borrowed {
					model = model.clone()
				}
				model.Update(feats, costs, updateRounds)
			}
			borrowed = false
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
	if ctx.Err() != nil && rec.trace.Measurements < opts.Budget && rec.trace.Stop != StopCertified {
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
// once n/refitGrowth more have arrived.
const refitGrowth = 8

// refitDue reports whether a training set of rows rows has outgrown the
// model last fitted on fitted of them. Successive fits are then at least a
// factor 1+1/refitGrowth apart in rows — a geometric schedule.
func refitDue(rows, fitted int) bool {
	return rows-fitted >= fitted/refitGrowth
}

// predictor is the engine's view of the cost model between two refits: a
// configuration is featurized and predicted at most once, however often the
// walkers step onto it and whether or not it then reaches the ranking. A
// prediction is a pure function of the fitted forest and the configuration,
// and Predict and PredictBatch agree bit for bit, so reading one back from
// the memo cannot change a walker's move or a candidate's rank.
type predictor struct {
	sp    *Space
	model *GBTModel
	memo  map[conv.Config]float64

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
	v := p.model.Predict(p.feat)
	p.memo[c] = v
	return v
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
		rank.push(scored{c, p.preds[i]})
	}
}

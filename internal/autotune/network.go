package autotune

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// This file is the network-level tuning API: one call tunes every
// convolution layer of a CNN concurrently against a shared cache. Layers
// with identical (arch, algorithm, shape) keys are deduplicated — the
// repeated 3×3 blocks of a ResNet stage tune once and share the verdict —
// mirroring how key-based autotuner caches amortize search across a model.
//
// With NetworkOptions.Warm the sweep additionally transfers state between
// related searches: a per-(arch, kind) pool — binned by layer family
// (kernel extent × stride), the granularity at which cost structure
// actually transfers — collects shape-normalized training rows and top-K
// incumbent configurations from finished layers, and every later layer
// starts with a fitted cost model and transferred incumbents instead of a
// cold random phase. The schedule is two deterministic waves — one
// representative search per family runs cold, then everything else runs
// warm off the frozen pool — so verdicts stay bit-identical for any worker
// count. A cache file saved with engine state (PutTrace) rebuilds the pool
// on load, in which case already-covered families skip their cold wave.

// NetworkLayer is one layer of a network-level tuning request. Grouped or
// depthwise layers carry their group count in Shape.Groups and tune with
// group-aware counts and bounds — do not fold them to a dense shape.
type NetworkLayer struct {
	Name   string
	Shape  shapes.ConvShape
	Repeat int // occurrences of this exact shape in the network (≥ 1)
}

// NetworkOptions controls a TuneNetwork run.
type NetworkOptions struct {
	// Tune holds the per-layer engine options (Budget, Seed, Workers,
	// NoPrune, ...). The same options — and therefore the same
	// deterministic verdict per shape — apply to every layer; in
	// particular, bound-guided pruning (on by default) trims each layer's
	// search independently, against that layer's own bound memo.
	Tune Options
	// Workers is how many layers are tuned concurrently (default
	// GOMAXPROCS). Correctness and output do not depend on it.
	Workers int
	// Winograd also tunes the fused Winograd dataflow for 3×3 unit-stride
	// layers and keeps the better verdict, as the paper's end-to-end
	// evaluation does.
	Winograd bool
	// Kinds lists additional dataflow kinds to tune per layer (Direct is
	// always searched; Winograd here is equivalent to the Winograd flag).
	// Each candidate kind is filtered by the layer's signature — FFT only
	// for unit-stride layers with kernels of at least 3×3, Winograd only
	// where it admits — and the best measured verdict per layer wins.
	Kinds []Kind
	// Warm enables cross-layer warm-starting: finished searches feed a
	// per-(arch, kind) transfer pool of normalized training rows and
	// incumbent seeds, and subsequent layers start from it instead of
	// cold. Verdicts remain deterministic for a fixed Tune.Seed at any
	// worker count.
	Warm bool
	// Resume re-enters cached searches whose persisted engine state is
	// shorter than Tune.Budget: the stored history replays (no repeat
	// measurements) and the search continues with the remaining budget.
	// Cached entries at or beyond the budget — and verdict-only entries —
	// are returned as-is.
	Resume bool
	// WrapMeasurer, when non-nil, wraps each deduplicated search's measurer
	// before the engine sees it — the seam the chaos fault injector (and
	// any real fallible backend) plugs into. The (kind, shape) identify the
	// search, letting a wrapper derive a per-search deterministic schedule.
	// nil lifts the plain measurer into an error-free fallible one.
	WrapMeasurer func(Kind, shapes.ConvShape, Measurer) FallibleMeasurer
	// Analytic, when non-nil, degrades instead of failing: a layer whose
	// search errors out (dead measurer, open circuit breaker, every
	// configuration quarantined before one valid measurement) is answered
	// by this tier (Tier: TierAnalytic), at its calibration and from its
	// memoized spaces, so the sweep still returns a complete verdict list.
	// nil — or a tier built for another architecture — fails the sweep on
	// the first layer error.
	Analytic *AnalyticDSE
}

// LayerVerdict is the tuning outcome of one network layer.
type LayerVerdict struct {
	Layer  NetworkLayer
	Kind   Kind
	Config conv.Config
	M      Measurement
	// Shared is true when the verdict did not run its own search: it was
	// satisfied from the cache or deduplicated onto another layer's search
	// of an identical key.
	Shared bool
	// Partial is true when the search behind this verdict was cut short by
	// the context (deadline or cancellation): Config/M are best-so-far, not
	// converged. The truncated engine state is persisted at its honest
	// budget, so a repeated request with Resume continues the search.
	Partial bool
	// Tier is the verdict's provenance: measured (the default), analytic
	// (a measurement-free estimate from the bound-derived time model), or
	// refined (a measured upgrade of an earlier analytic answer).
	Tier Tier
}

// Search is one distinct (kind, shape) search of a network request — the
// unit the shared cache keys, deduplicates and persists.
type Search struct {
	Kind  Kind
	Shape shapes.ConvShape
}

// netTask is one planned search of a sweep with its outcome. sp stays nil on
// a cache probe, which builds no spaces.
type netTask struct {
	Search
	owner int // first layer index that requested this search
	sp    *Space
	searchOutcome
	shared bool // the outcome came without running a search here
}

// sweepPlan is a network request reduced to the work behind it: the distinct
// searches in first-come layer order — so the schedule, and therefore the
// warm pool, is a pure function of the input — and tasksOf[i], the task
// index per candidate kind of layers[i], the mandatory Direct search first.
type sweepPlan struct {
	arch    memsim.Arch
	layers  []NetworkLayer
	tasks   []*netTask
	tasksOf [][]int
}

// planSweep is the one reduction of (layers, options) to searches: the cache
// probe, the sweep and the service's accounting (Searches) all read its
// plan, so they cannot disagree on what a request will search.
func planSweep(arch memsim.Arch, layers []NetworkLayer, opts NetworkOptions) sweepPlan {
	p := sweepPlan{arch: arch, layers: layers, tasksOf: make([][]int, len(layers))}
	// Two layers share a search when they share its cache key; within one
	// architecture that is the kind and the shape, groups normalized as the
	// key normalizes them.
	taskIdx := make(map[Search]int, len(layers))
	var kinds [len(kindTable)]Kind
	flat := make([]int, 0, 2*len(layers)) // backs every tasksOf[i]
	for i, l := range layers {
		start := len(flat)
		for _, kind := range candidateKinds(kinds[:0], l.Shape, opts) {
			key := Search{kind, l.Shape}
			key.Shape.Groups = l.Shape.G()
			ti, seen := taskIdx[key]
			if !seen {
				ti = len(p.tasks)
				taskIdx[key] = ti
				p.tasks = append(p.tasks, &netTask{Search: Search{kind, l.Shape}, owner: i})
			}
			flat = append(flat, ti)
		}
		p.tasksOf[i] = flat[start:len(flat):len(flat)]
	}
	return p
}

// Searches lists the distinct searches a sweep of the request runs, in the
// order it schedules them — for callers that must predict the search set
// without running it (the service's admission accounting and replication).
func Searches(arch memsim.Arch, layers []NetworkLayer, opts NetworkOptions) []Search {
	tasks := planSweep(arch, layers, opts).tasks
	out := make([]Search, len(tasks))
	for i, t := range tasks {
		out[i] = t.Search
	}
	return out
}

// poolRowCap bounds the transferred training rows per pool family; beyond
// it, contributions add incumbent seeds only. warmTopK is how many incumbent
// configurations each finished search contributes as warm seeds, and
// poolSeedCapFactor bounds the seeds a family accumulates (as a multiple of
// warmTopK): every seed is snapped and measured at the start of a warm
// search, so an uncapped list — e.g. a primed cache with many entries per
// family — would flood the budget with other layers' incumbents instead of
// leaving room to search.
const (
	poolRowCap        = 512
	warmTopK          = 4
	poolSeedCapFactor = 2
)

// poolKey addresses one family of a per-(arch, kind) transfer pool. Cost
// structure transfers best between layers sharing kernel extent and
// stride (a ResNet stage's repeated 3×3 blocks, the 1×1 projections, the
// stride-2 downsamplers), so rows and seeds are binned that way and a
// search inherits exactly its own family's state.
type poolKey struct {
	kind        Kind
	hker, strid int
}

func familyOf(kind Kind, s shapes.ConvShape) poolKey {
	return poolKey{kind: kind, hker: s.Hker, strid: s.Strid}
}

// transferPool is the cross-layer state: normalized training rows and
// incumbent seed configurations from finished searches, binned by family.
// It is written between waves and read-only while searches run, so no lock
// is needed; the one thing a running search adds is the family's fitted
// prior, behind its own sync.Once. memo, when set, is the cache's prior memo
// the family priors of this pool's arch fit through.
type transferPool struct {
	byFamily map[poolKey]*poolEntry
	memo     *priorMemo
	arch     string
}

type poolEntry struct {
	feats [][]float64
	costs []float64
	seeds []conv.Config
	// prior is the cost model fitted on (feats, costs) as they stand once
	// the pool is frozen; contribute must not run after a search borrowed it.
	prior sharedPrior
}

// sharedPrior is the cost model every warm search of one family starts from.
// The fit is a pure function of the family's frozen rows, so it runs once per
// sweep — lazily, in the worker of whichever search asks first, and through
// the cache's memo when the pool has one. Every search borrows that model to
// predict; only a search due an Update clones it, and Updates its clone on
// its own: never a shared mutable model.
type sharedPrior struct {
	once  sync.Once
	model *GBTModel  // read-only: Predict and NumRows
	memo  *priorMemo // nil fits without a memo
	key   priorKey
}

// borrow returns the prior, fitting it on (x, y) first if no search has yet.
// The caller must not Update it. Every caller must pass the same frozen rows.
func (p *sharedPrior) borrow(cfg GBTConfig, x [][]float64, y []float64) *GBTModel {
	p.once.Do(func() { p.model = p.memo.fit(p.key, cfg, x, y) })
	return p.model
}

// priorMemo keeps, per (arch, family), the forest of the last prior fitted
// at the row cap, addressed by a digest of the rows it was fitted on: a
// family's prior is a pure function of its frozen rows, so a later sweep
// whose pool hands the family the same rows rebuilds the fit instead of
// running it. Only capped families are kept — below the cap every search
// that read a family's prior adds rows to it, so that row set never comes
// back. The memo lives on the Cache, in memory only, and needs no
// invalidation: a slot is content-addressed, and a changed row set simply
// misses and replaces it. What keeps a capped family's row set stable from
// sweep to sweep is prime's source order: a fresh low-budget search does not
// displace the higher-budget sources that filled the family.
type priorMemo struct {
	mu           sync.Mutex
	slots        map[priorKey]*priorFit
	hits, misses int // capped fits answered from a slot, and fitted afresh
	belowCap     int // fits below poolRowCap, which bypass the slots
}

type priorKey struct {
	arch string
	fam  poolKey
}

// priorFit is one slot: the rows' digest, the config of the fit, and the
// fitted forest alone — no rows, predictions or columns.
type priorFit struct {
	digest [sha256.Size]byte
	cfg    GBTConfig
	base   float64
	nodes  []treeNode
	roots  []int32
}

// fit returns TrainGBT(cfg, x, y), bit for bit in every prediction. On a slot
// hit it returns the bare forest holding the rows — no per-row predictions or
// ranks, which a search that only predicts never reads. The first Update of a
// clone ingests the rows, which gives TrainGBT's training state too: ingest
// predicts each row as base + Σ lr·leaf in tree order — exactly the sum boost
// advanced the row's prediction by — and ranks the rows' histogram bins from
// x alone. The bare forest shares the slot's, clipped so that an append would
// reallocate; the sweep only ever borrows or clones it anyway.
func (m *priorMemo) fit(k priorKey, cfg GBTConfig, x [][]float64, y []float64) *GBTModel {
	if m == nil {
		return TrainGBT(cfg, x, y)
	}
	if len(x) < poolRowCap {
		m.mu.Lock()
		m.belowCap++
		m.mu.Unlock()
		return TrainGBT(cfg, x, y)
	}
	digest := rowsDigest(x, y)
	m.mu.Lock()
	f := m.slots[k]
	hit := f != nil && f.digest == digest && f.cfg == cfg
	if hit {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if hit {
		return &GBTModel{cfg: cfg, base: f.base, nodes: slices.Clip(f.nodes), roots: slices.Clip(f.roots), x: x, y: y}
	}
	model := TrainGBT(cfg, x, y)
	f = &priorFit{digest: digest, cfg: cfg, base: model.base,
		nodes: slices.Clone(model.nodes), roots: slices.Clone(model.roots)}
	m.mu.Lock()
	if m.slots == nil {
		m.slots = make(map[priorKey]*priorFit)
	}
	m.slots[k] = f
	m.mu.Unlock()
	return model
}

// rowsDigest is the SHA-256 of a training set's float bits: the rows, which
// within a family share one width, then the costs.
func rowsDigest(x [][]float64, y []float64) [sha256.Size]byte {
	buf := make([]byte, 0, 8*(len(x)*len(x[0])+len(y)))
	for _, row := range x {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, v := range y {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

func newTransferPool() *transferPool {
	return &transferPool{byFamily: make(map[poolKey]*poolEntry)}
}

func (p *transferPool) has(k poolKey) bool {
	pe := p.byFamily[k]
	return pe != nil && (len(pe.feats) > 0 || len(pe.seeds) > 0)
}

// full reports a family at both caps — poolRowCap rows and
// poolSeedCapFactor·warmTopK seeds — to which contribute adds nothing.
func (p *transferPool) full(k poolKey) bool {
	pe := p.byFamily[k]
	return pe != nil && len(pe.feats) >= poolRowCap && len(pe.seeds) >= poolSeedCapFactor*warmTopK
}

// contribute folds one finished search into its family's pool: successful
// measurements become training rows — featurized in the source space, with
// log-costs recentered to zero mean so only relative (shape-free) cost
// transfers — and the top-K configurations become warm seeds.
func (p *transferPool) contribute(kind Kind, sp *Space, hist []MeasuredConfig) {
	var sum float64
	n := 0
	for _, h := range hist {
		if h.OK {
			sum += math.Log(h.M.Seconds)
			n++
		}
	}
	if n == 0 {
		return
	}
	mean := sum / float64(n)
	key := familyOf(kind, sp.Shape)
	pe := p.byFamily[key]
	if pe == nil {
		pe = &poolEntry{prior: sharedPrior{memo: p.memo, key: priorKey{p.arch, key}}}
		p.byFamily[key] = pe
	}
	for _, h := range hist {
		if !h.OK || len(pe.feats) >= poolRowCap {
			continue
		}
		pe.feats = append(pe.feats, sp.Features(h.Config))
		pe.costs = append(pe.costs, math.Log(h.M.Seconds)-mean)
	}
	for _, c := range topConfigs(hist, warmTopK) {
		if len(pe.seeds) >= poolSeedCapFactor*warmTopK {
			break
		}
		pe.seeds = append(pe.seeds, c)
	}
}

// prime rebuilds the pool from the cache: every state-carrying entry of this
// architecture contributes, highest budget first and in key order within one
// budget — except, skipped before its space is built or its rows decoded, an
// entry whose family the sweep does not read (fams; nil reads every family)
// or whose family is already full, where contribute would add nothing. A
// family the sweep reads gets the pool a full prime would give it.
//
// Budget first because the richer search is the better source, and because
// it keeps a full family's rows where they are: a fresh low-budget entry
// ranks behind every higher-budget source, so a family those sources fill
// keeps its rows, its seeds and its slot in the prior memo when one arrives.
// The order is still a pure function of the cache's entry set.
func (p *transferPool) prime(cache *Cache, arch memsim.Arch, fams map[poolKey]bool) {
	entries := cache.stateEntries(arch.Name)
	slices.SortStableFunc(entries, func(a, b CacheEntry) int { return cmp.Compare(b.coveredBudget(), a.coveredBudget()) })
	for _, e := range entries {
		kind, err := kindFromString(e.Kind)
		if err != nil {
			continue // Load validated these; be defensive anyway
		}
		s := e.Shape.shape()
		if fam := familyOf(kind, s); (fams != nil && !fams[fam]) || p.full(fam) {
			continue
		}
		sp, err := NewSpace(s, arch, kind, 0, true)
		if err != nil {
			continue
		}
		p.contribute(kind, sp, e.history())
	}
}

// warmFor assembles the WarmStart a search inherits from its family, or
// nil when the pool has nothing for it. The slices are shared read-only
// across concurrent searches; Tune copies before it appends, borrows the
// family's one fitted prior, and clones it only to refit.
func (p *transferPool) warmFor(k poolKey) *WarmStart {
	pe := p.byFamily[k]
	if pe == nil || (len(pe.feats) == 0 && len(pe.seeds) == 0) {
		return nil
	}
	return &WarmStart{Feats: pe.feats, Costs: pe.costs, Seeds: pe.seeds, prior: &pe.prior}
}

// candidateKinds filters the requested kinds by a layer's signature — the
// torchinductor idiom: cheap static gating decides which kernel templates
// even enter the search, and the shared cache then dedups identical
// (kind, shape) searches across layers. Direct is always a candidate (it
// admits every shape and anchors the sweep's error handling); every other
// kind is a candidate where it was requested and its row offers it for the
// shape (kinds.go). Candidates come back in Kind order whatever order they
// were requested in, appended to dst (the plan passes one reused buffer):
// the first is the layer's mandatory search.
// CandidateKinds is the exported form of the gating alone; Searches is the
// whole request's deduplicated search set.
func CandidateKinds(s shapes.ConvShape, winograd bool, kinds []Kind) []Kind {
	return candidateKinds(nil, s, NetworkOptions{Winograd: winograd, Kinds: kinds})
}

func candidateKinds(dst []Kind, s shapes.ConvShape, opts NetworkOptions) []Kind {
	var want [len(kindTable)]bool
	want[Winograd] = opts.Winograd // the flag is an alias for the kind
	for _, k := range opts.Kinds {
		if int(k) < len(want) {
			want[k] = true
		}
	}
	dst = append(dst, Direct)
	for _, k := range Kinds[1:] {
		if row := k.spec(); want[k] && (row.offered == nil || row.offered(s)) {
			dst = append(dst, k)
		}
	}
	return dst
}

// TuneNetwork tunes every layer of a network with the paper's engine,
// fanning the deduplicated (kind, shape) searches across opts.Workers
// goroutines against a shared cache. Verdicts come back in layer order
// and, for a fixed opts.Tune.Seed, are identical for any
// Workers/opts.Tune.Workers setting — with or without warm-starting.
// cache may be nil for a throwaway run; passing a loaded persistent cache
// skips already-tuned layers entirely (or resumes them, with opts.Resume)
// and seeds the transfer pool from any persisted engine state.
func TuneNetwork(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, error) {
	return TuneNetworkContext(context.Background(), arch, layers, cache, opts)
}

// TuneNetworkContext is TuneNetwork bounded by a context: when ctx is
// cancelled or its deadline passes, every still-running (and not yet
// started) search stops after its Section 5 seed measurements and reports
// best-so-far, so the sweep returns a complete verdict list with the
// truncated layers marked Partial instead of an error. Truncated engine
// state is persisted at its honest budget; a repeated request with Resume
// picks each search up where the deadline cut it.
func TuneNetworkContext(ctx context.Context, arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("autotune: no layers to tune")
	}
	if cache == nil {
		cache = NewCache()
	}
	// A request the cache fully answers is a lookup, not a sweep: it returns
	// here, before any space, measurer, transfer pool or worker exists.
	plan := planSweep(arch, layers, opts)
	if verdicts, ok := plan.cached(cache, opts); ok {
		return verdicts, nil
	}
	if err := plan.run(ctx, cache, opts); err != nil {
		return nil, err
	}
	return plan.chooseKinds(opts)
}

// run executes the plan's searches against the cache, leaving each task its
// outcome — for a search that ran here, its trace included.
func (p sweepPlan) run(ctx context.Context, cache *Cache, opts NetworkOptions) error {
	arch, tasks := p.arch, p.tasks
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	live, err := p.spaces()
	if err != nil {
		return err
	}

	run := func(idxs []int, pool *transferPool) {
		fanIndexed(len(idxs), workers, func(j int) {
			t := tasks[idxs[j]]
			to := opts.Tune
			if pool != nil {
				to.Warm = pool.warmFor(familyOf(t.Kind, t.Shape))
			}
			plain := NewMemoMeasure(arch, t.Shape, t.Kind).Measure
			measure := LiftMeasurer(plain)
			if opts.WrapMeasurer != nil {
				measure = opts.WrapMeasurer(t.Kind, t.Shape, plain)
			}
			t.searchOutcome, t.shared = tuneShared(ctx, cache, t.sp, measure, to, opts.Resume)
		})
	}

	if !opts.Warm {
		run(live, nil)
	} else {
		// Two deterministic waves: wave 0 is one representative search per
		// layer family the pool has nothing for yet (cold), wave 1 is
		// everything else, warm off the pool frozen after wave 0. Both
		// waves fan across the workers; determinism holds because searches
		// within a wave never feed each other.
		pool := newTransferPool()
		pool.memo, pool.arch = &cache.priors, arch.Name
		pool.prime(cache, arch, liveFamilies(tasks, live))
		var wave0, wave1 []int
		cold := make(map[poolKey]bool)
		for _, i := range live {
			fam := familyOf(tasks[i].Kind, tasks[i].Shape)
			if !pool.has(fam) && !cold[fam] {
				cold[fam] = true
				wave0 = append(wave0, i)
			} else {
				wave1 = append(wave1, i)
			}
		}
		run(wave0, nil)
		for _, i := range wave0 {
			if t := tasks[i]; t.err == nil {
				pool.contribute(t.Kind, t.sp, t.history())
			}
		}
		run(wave1, pool)
	}
	return nil
}

// spaces builds every task's space and returns the indexes of the tasks that
// have one to search — the live tasks.
func (p sweepPlan) spaces() ([]int, error) {
	live := make([]int, 0, len(p.tasks))
	for i, t := range p.tasks {
		sp, err := NewSpace(t.Shape, p.arch, t.Kind, 0, true)
		if err != nil {
			if t.Kind == Direct {
				return nil, fmt.Errorf("autotune: layer %q: %w", p.layers[t.owner].Name, err)
			}
			// A non-direct kind may legitimately not admit a layer; the
			// remaining candidates stand alone then.
			t.err = err
			continue
		}
		t.sp = sp
		live = append(live, i)
	}
	return live, nil
}

// liveFamilies is the set of pool families the live tasks read.
func liveFamilies(tasks []*netTask, live []int) map[poolKey]bool {
	fams := make(map[poolKey]bool, len(live))
	for _, i := range live {
		fams[familyOf(tasks[i].Kind, tasks[i].Shape)] = true
	}
	return fams
}

// CachedNetwork answers a network request from the cache alone: ok reports
// that every deduplicated (kind, shape) search the sweep would run is
// already covered (Cache.Covered — the predicate each search itself asks
// first), and the verdicts are then exactly what TuneNetworkContext returns
// for the request, because it returns these. The cost is one lookup per
// distinct search — independent of how much else the cache holds — and the
// first uncovered search ends the probe. It is exported for callers that
// must know "this request will measure nothing" before they queue, meter or
// replicate it (the tuned daemon's serve path).
func CachedNetwork(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, bool) {
	if cache == nil || len(layers) == 0 {
		return nil, false
	}
	return planSweep(arch, layers, opts).cached(cache, opts)
}

// cached is the probe over a built plan: every task takes its verdict from
// the cache, or the first uncovered one reports a miss.
func (p sweepPlan) cached(cache *Cache, opts NetworkOptions) ([]LayerVerdict, bool) {
	for _, t := range p.tasks {
		e, remaining := cache.Covered(p.arch.Name, t.Kind, t.Shape, opts.Tune.Budget, opts.Resume)
		if remaining > 0 {
			return nil, false
		}
		t.cfg, t.m = e.verdict()
		t.shared = true
	}
	verdicts, err := p.chooseKinds(opts)
	return verdicts, err == nil
}

// chooseKinds is the per-layer kernel choice: among the finished searches of
// each layer's candidate kinds the best measured verdict wins, in layer
// order.
func (p sweepPlan) chooseKinds(opts NetworkOptions) ([]LayerVerdict, error) {
	tier := opts.Analytic
	if tier != nil && tier.arch != p.arch {
		tier = nil
	}
	verdicts := make([]LayerVerdict, len(p.layers))
	for i, l := range p.layers {
		// best is the layer's winning search so far: the mandatory Direct one,
		// or — on the degraded path — nothing when that failed. A failed
		// alternative-kind search (e.g. no valid configuration for tiny
		// spatial dims) leaves it standing.
		direct := p.tasks[p.tasksOf[i][0]]
		best := direct
		if direct.err != nil {
			if tier == nil {
				return nil, fmt.Errorf("autotune: layer %q: %w", l.Name, direct.err)
			}
			best = nil
		}
		for _, ti := range p.tasksOf[i][1:] {
			if t := p.tasks[ti]; t.err == nil && (best == nil || t.m.Seconds < best.m.Seconds) {
				best = t
			}
		}
		if best != nil {
			verdicts[i] = LayerVerdict{Layer: l, Kind: best.Kind, Config: best.cfg, M: best.m,
				Shared: best.shared || best.owner != i, Partial: best.partial()}
			continue
		}
		// No candidate kind measured: the layer is answered by the analytic
		// tier, over the kinds the sweep had a space for, so the sweep stays
		// complete. Only an unrankable layer still fails it.
		kinds := make([]Kind, 0, len(p.tasksOf[i]))
		for _, ti := range p.tasksOf[i] {
			if t := p.tasks[ti]; t.sp != nil {
				kinds = append(kinds, t.Kind)
			}
		}
		av, err := tier.layerVerdict(l, kinds)
		if err != nil {
			return nil, fmt.Errorf("autotune: layer %q: %w", l.Name, direct.err)
		}
		verdicts[i] = av
	}
	return verdicts, nil
}

// NetworkSeconds sums repeat-weighted simulated layer times — the
// end-to-end convolution time of the tuned network.
func NetworkSeconds(verdicts []LayerVerdict) float64 {
	var t float64
	for _, v := range verdicts {
		r := v.Layer.Repeat
		if r < 1 {
			r = 1
		}
		t += v.M.Seconds * float64(r)
	}
	return t
}

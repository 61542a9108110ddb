package autotune

import (
	"cmp"
	"context"
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
// (kernel extent × stride), the granularity at which good configurations
// actually transfer — collects the top-K incumbent configurations of
// finished layers, and every later layer starts from those incumbents
// instead of a cold random phase, with a cost model that learns the
// residual over the I/O-bound floor on its own rows. The schedule is two
// deterministic waves — one representative search per family runs cold,
// then everything else runs warm off the frozen pool — so verdicts stay
// bit-identical for any worker count. It runs once per kind, side by side:
// each layer's lead search — its Winograd one where it has one, its Direct
// one otherwise — waits on nothing, and its other searches' gap stop (see
// Tune) measures against the lead's verdict. A cache file
// saved with engine state (PutTrace) rebuilds the pool on load, in which
// case already-covered families skip their cold wave.

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
	// per-(arch, kind) transfer pool of incumbent seeds, and subsequent
	// layers start from those seeds instead of cold, their cost model
	// learning the residual over the I/O-bound floor from their own rows
	// (unless Tune.NoPrune, which keeps the search bound-blind). Verdicts
	// remain deterministic for a fixed Tune.Seed at any worker count.
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

// CoveredSearch is one search a cache probe looked up and the verdict it read
// there (Probe.Searches).
type CoveredSearch struct {
	Search
	Config conv.Config
	M      Measurement
}

// netTask is one planned search of a sweep with its outcome. sp stays nil on
// a cache probe, which builds no spaces.
type netTask struct {
	Search
	owner int // first layer index that requested this search
	sp    *Space
	searchOutcome
	shared bool // the outcome came without running a search here
	// On a live lead task (sweepPlan.lead), what the layer's followers
	// read for their gap stop: done is closed once the outcome is set, and
	// bookings, under mu, hold the incumbent after each booking of its run;
	// more is closed and replaced at each.
	done     chan struct{}
	mu       sync.Mutex
	bookings []booking
	more     chan struct{}
}

// booking is a lead's trace after one booking of measurements: its
// measurement count and its incumbent's seconds.
type booking struct {
	n    int
	best float64
}

// book publishes a booking of the lead's run (Options.booked).
func (t *netTask) book(n int, best float64) {
	t.mu.Lock()
	t.bookings = append(t.bookings, booking{n, best})
	close(t.more)
	t.more = make(chan struct{})
	t.mu.Unlock()
}

// at returns the lead's incumbent after its last booking of at most n
// measurements, settled where a booking at or past n shows no later one can
// move it; otherwise more signals the next booking.
func (t *netTask) at(n int) (best float64, settled bool, more <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	best = math.Inf(1)
	for _, b := range t.bookings {
		if b.n > n {
			return best, true, nil
		}
		if best = b.best; b.n == n {
			return best, true, nil
		}
	}
	return best, false, t.more
}

// verdict is a finished task's verdict seconds, +Inf where it failed.
func (t *netTask) verdict() float64 {
	if t.err != nil {
		return math.Inf(1)
	}
	return t.m.Seconds
}

// follower is a search's view of its layer's lead in a sweep. It waits for
// the lead with its worker slot handed back, so a sweep of any worker count
// finishes: a lead waits on nothing.
type follower struct {
	lead  *netTask
	slots chan struct{}
}

// after is the follower's Options.lead.
func (f follower) after(n int) float64 {
	for {
		// done is read first: once it is closed every booking is in, and
		// none at or past n means the lead stopped short of n.
		finished := closed(f.lead.done)
		best, settled, more := f.lead.at(n)
		switch {
		case settled:
			return best
		case finished:
			return f.lead.verdict()
		}
		// Wait for the next booking or the lead's end, the slot handed back.
		<-f.slots
		select {
		case <-more:
		case <-f.lead.done:
		}
		f.slots <- struct{}{}
	}
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
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

// Searches lists the distinct searches a sweep of the request runs, in plan
// (first-come layer) order — for callers that must predict the search set
// without running it (the service's admission accounting and replication).
func Searches(arch memsim.Arch, layers []NetworkLayer, opts NetworkOptions) []Search {
	return planSweep(arch, layers, opts).searches()
}

// searches lists the plan's tasks' searches in plan order.
func (p sweepPlan) searches() []Search {
	out := make([]Search, len(p.tasks))
	for i, t := range p.tasks {
		out[i] = t.Search
	}
	return out
}

// warmTopK is how many incumbent configurations each finished search
// contributes as warm seeds, and poolSeedCapFactor bounds the seeds a family
// accumulates (as a multiple of warmTopK): every seed is snapped and measured
// at the start of a warm search, so an uncapped list — e.g. a primed cache
// with many entries per family — would flood the budget with other layers'
// incumbents instead of leaving room to search.
const (
	warmTopK          = 4
	poolSeedCapFactor = 2
)

// poolKey addresses one family of a per-(arch, kind) transfer pool. Good
// configurations transfer best between layers sharing kernel extent and
// stride (a ResNet stage's repeated 3×3 blocks, the 1×1 projections, the
// stride-2 downsamplers), so seeds are binned that way and a search inherits
// exactly its own family's.
type poolKey struct {
	kind        Kind
	hker, strid int
}

func familyOf(kind Kind, s shapes.ConvShape) poolKey {
	return poolKey{kind: kind, hker: s.Hker, strid: s.Strid}
}

// transferPool is the cross-layer state: the incumbent seed configurations
// of finished searches, binned by family. It is written between waves and
// read-only while searches run, so no lock is needed.
type transferPool struct {
	seeds map[poolKey][]conv.Config
}

func newTransferPool() *transferPool {
	return &transferPool{seeds: make(map[poolKey][]conv.Config)}
}

func (p *transferPool) has(k poolKey) bool { return len(p.seeds[k]) > 0 }

// full reports a family at its seed cap, to which contribute adds nothing.
func (p *transferPool) full(k poolKey) bool {
	return len(p.seeds[k]) >= poolSeedCapFactor*warmTopK
}

// contribute folds one finished search of (kind, s) into its family's pool:
// its top-K configurations become warm seeds, up to the family's cap.
func (p *transferPool) contribute(kind Kind, s shapes.ConvShape, hist []MeasuredConfig) {
	key := familyOf(kind, s)
	for _, c := range topConfigs(hist, warmTopK) {
		if p.full(key) {
			break
		}
		p.seeds[key] = append(p.seeds[key], c)
	}
}

// prime rebuilds the pool from the cache: every state-carrying entry of this
// architecture contributes, highest budget first and in key order within one
// budget — except an entry whose family the sweep does not read (fams; nil
// reads every family), which is not even copied out of the cache, and one
// whose family is already full, where contribute would add nothing. A
// family the sweep reads gets the seeds a full prime would give it.
//
// Budget first because the richer search is the better source, and because
// it keeps a full family's seeds where they are: a fresh low-budget entry
// ranks behind every higher-budget source. The order is still a pure
// function of the cache's entry set.
func (p *transferPool) prime(cache *Cache, arch memsim.Arch, fams map[poolKey]bool) {
	read := func(e CacheEntry) bool {
		kind, err := kindFromString(e.Kind)
		return err == nil && (fams == nil || fams[familyOf(kind, e.Shape.shape())])
	}
	entries := cache.stateEntries(arch.Name, read)
	slices.SortStableFunc(entries, func(a, b CacheEntry) int { return cmp.Compare(b.coveredBudget(), a.coveredBudget()) })
	for _, e := range entries {
		kind, _ := kindFromString(e.Kind) // read admitted it
		if s := e.Shape.shape(); !p.full(familyOf(kind, s)) {
			p.contribute(kind, s, e.history())
		}
	}
}

// warmFor assembles the warm start a search inherits from its family, or
// nil when the pool has nothing for it. The seeds are shared read-only
// across concurrent searches.
func (p *transferPool) warmFor(k poolKey) *warmStart {
	if !p.has(k) {
		return nil
	}
	return &warmStart{Seeds: p.seeds[k]}
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
	if verdicts, _, ok := plan.cached(cache, opts); ok {
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

	// slots holds the schedules below to workers searches at a time between
	// them; a follower waiting for its lead gives its slot back while it
	// waits.
	slots := make(chan struct{}, workers)
	run := func(idxs []int, pool *transferPool) {
		fanIndexed(len(idxs), workers, func(j int) {
			slots <- struct{}{}
			defer func() { <-slots }()
			t := tasks[idxs[j]]
			to := opts.Tune
			if pool != nil {
				to.warm = pool.warmFor(familyOf(t.Kind, t.Shape))
			}
			if lead := p.lead(t.owner); lead == t {
				defer close(t.done)
				to.booked = t.book
			} else {
				to.lead = follower{lead, slots}.after
			}
			plain := NewMemoMeasure(arch, t.Shape, t.Kind).Measure
			measure := LiftMeasurer(plain)
			if opts.WrapMeasurer != nil {
				measure = opts.WrapMeasurer(t.Kind, t.Shape, plain)
			}
			t.searchOutcome, t.shared = tuneShared(ctx, cache, t.sp, measure, to, opts.Resume)
		})
	}

	schedule := func(idxs []int) {
		if !opts.Warm {
			run(idxs, nil)
			return
		}
		// Two deterministic waves: wave 0 is one representative search per
		// layer family the pool has nothing for yet (cold), wave 1 is
		// everything else, warm off the pool frozen after wave 0. Both
		// waves fan across the workers; determinism holds because searches
		// within a wave never feed each other.
		pool := newTransferPool()
		pool.prime(cache, arch, liveFamilies(tasks, idxs))
		var wave0, wave1 []int
		cold := make(map[poolKey]bool)
		for _, i := range idxs {
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
				pool.contribute(t.Kind, t.Shape, t.history())
			}
		}
		run(wave1, pool)
	}

	// The schedule runs once per kind, side by side. Each layer has one
	// lead search, which waits on nothing; every other search of the layer
	// is a follower, whose gap stop reads the lead's incumbent after a given
	// number of the lead's measurements and waits for it (Options.lead), so
	// what it reads is the same whatever the timing. A lead is a Winograd
	// search or a Direct one, and a Direct search follows only a Winograd
	// one: the Winograd schedule always finishes, then the Direct one, then
	// the rest. Pool families are per kind, so the split builds every pool
	// as one schedule over all of live would.
	var byKind [len(kindTable)][]int
	for _, i := range live {
		t := tasks[i]
		if p.lead(t.owner) == t {
			t.done, t.more = make(chan struct{}), make(chan struct{})
		}
		byKind[t.Kind] = append(byKind[t.Kind], i)
	}
	var wg sync.WaitGroup
	for _, idxs := range byKind {
		if len(idxs) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				schedule(idxs)
			}()
		}
	}
	wg.Wait()
	return nil
}

// lead is layer i's lead search: its Winograd search where that has a space,
// and its Direct search otherwise. Layers that share a search share their
// candidate kinds, so a search leads every layer it serves or none.
func (p sweepPlan) lead(i int) *netTask {
	for _, ti := range p.tasksOf[i][1:] {
		if t := p.tasks[ti]; t.Kind == Winograd && t.sp != nil {
			return t
		}
	}
	return p.tasks[p.tasksOf[i][0]]
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
// for the request, because it returns these. probe is the probe's
// trajectory, hit or miss, for a caller that checks later that the cache
// still answers it the same way. The cost is one lookup per distinct search
// — independent of how much else the cache holds — and the first uncovered
// search ends the probe. It is exported for callers that must know "this
// request will measure nothing" before they queue, meter or replicate it
// (the tuned daemon's serve path).
func CachedNetwork(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) (verdicts []LayerVerdict, probe Probe, ok bool) {
	if cache == nil || len(layers) == 0 {
		return nil, Probe{}, false
	}
	p := planSweep(arch, layers, opts)
	verdicts, n, ok := p.cached(cache, opts)
	return verdicts, Probe{p.tasks[:n]}, ok
}

// Probe is the trajectory of one CachedNetwork probe: the searches it looked
// up, in order, with the verdict it read at each. On a hit that is every
// search of the plan; on a miss, the covered prefix and then the search it
// missed, which carries no verdict. It holds the plan's tasks and builds
// nothing until Searches is called, so a caller that keeps no trajectory
// pays nothing for one.
type Probe struct{ tasks []*netTask }

// Searches returns the probe's trajectory: a caller asks Cache.Holds of a
// covered search and Cache.Misses of a missed one to learn whether the probe
// would still go the same way.
func (p Probe) Searches() []CoveredSearch {
	out := make([]CoveredSearch, len(p.tasks))
	for i, t := range p.tasks {
		out[i] = CoveredSearch{t.Search, t.cfg, t.m}
	}
	return out
}

// cached is the probe over a built plan: every task takes its verdict from
// the cache, or the first uncovered one reports a miss. n counts the tasks it
// looked up, the missed one included.
func (p sweepPlan) cached(cache *Cache, opts NetworkOptions) (verdicts []LayerVerdict, n int, ok bool) {
	for i, t := range p.tasks {
		e, remaining := cache.Covered(p.arch.Name, t.Kind, t.Shape, opts.Tune.Budget, opts.Resume)
		if remaining > 0 {
			return nil, i + 1, false
		}
		t.cfg, t.m = e.verdict()
		t.shared = true
	}
	verdicts, err := p.chooseKinds(opts)
	return verdicts, len(p.tasks), err == nil
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
	var fallback [][]Kind // per layer, the kinds the analytic tier answers it over
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
		if fallback == nil {
			fallback = make([][]Kind, len(p.layers))
		}
		for _, ti := range p.tasksOf[i] {
			if t := p.tasks[ti]; t.sp != nil {
				fallback[i] = append(fallback[i], t.Kind)
			}
		}
	}
	if fallback != nil {
		if bad, err := tier.layerVerdicts(verdicts, p.layers, fallback, tier.calibration()); err != nil {
			return nil, fmt.Errorf("autotune: layer %q: %w", p.layers[bad].Name, p.tasks[p.tasksOf[bad][0]].err)
		}
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

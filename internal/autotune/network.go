package autotune

import (
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
// With NetworkOptions.Warm the sweep transfers state between searches: the
// I/O floor ranks a space, and each cached verdict of the search's (arch,
// kind), of any shape, knows how far its measured time sat above its own
// floor (Cache.candidates). A warm search measures first the verdicts that
// rank best in its space by floor × that ratio, instead of a cold random
// phase, and its cost model learns the residual over the floor on its own
// rows (seedsFor). The candidates are read once per (sweep, kind), before
// its searches start, so verdicts stay bit-identical for any worker count.
// Only a kind the cache holds no candidate of runs a cold wave first: one
// search per layer family (kernel extent × stride). The schedule runs once
// per kind, side by side: each layer's lead search — its Winograd one where
// it has one, its Direct one otherwise — waits on nothing, and its other
// searches' gap stop (see Tune) measures against the lead's verdict.

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
	// Warm enables cross-layer warm-starting: every search starts from the
	// cached verdicts of its kind that rank best in its space by floor ×
	// measured/floor ratio (by seconds alone under Tune.NoPrune, which
	// keeps the search bound-blind), instead of cold, its cost model
	// learning the residual over the I/O-bound floor from its own rows. A
	// kind the cache holds no verdict of first runs one cold search per
	// layer family. Verdicts remain deterministic for a fixed Tune.Seed at
	// any worker count.
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
// warm seeds, is a pure function of the input and the cache — and
// tasksOf[i], the task index per candidate kind of layers[i], the mandatory
// Direct search first.
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

// warmSeeds is how many cached verdicts a warm search measures first. Every
// seed is measured at the start of the search, so more would spend the
// budget on other layers' verdicts instead of searching.
const warmSeeds = 8

// seedsFor is the warm start of a search of sp from the frozen candidates of
// its kind: each candidate snapped into sp, the measurable ones ranked by
// sp's tight floor of the snapped configuration times the candidate's floor
// ratio — by the candidate's seconds alone under noPrune — ties by
// configLess, and the warmSeeds best distinct ones. It is nil when no
// candidate lands in sp: the search runs cold. The ranking is a total order,
// so the seeds are a pure function of the candidate set.
func seedsFor(sp *Space, cands []scored, noPrune bool) *warmStart {
	ranked := make([]scored, 0, len(cands))
	for _, c := range cands {
		cfg, ok := sp.snap(c.cfg)
		if !ok || !sp.measurable(cfg) {
			continue
		}
		cost := c.cost
		if !noPrune {
			cost *= sp.analyticFloor(cfg)
		}
		if cost > 0 && !math.IsInf(cost, 1) {
			ranked = append(ranked, scored{cfg, cost})
		}
	}
	slices.SortFunc(ranked, compareScored)
	var seeds []conv.Config
	for _, r := range ranked {
		if len(seeds) == warmSeeds {
			break
		}
		if !slices.Contains(seeds, r.cfg) {
			seeds = append(seeds, r.cfg)
		}
	}
	if seeds == nil {
		return nil
	}
	return &warmStart{Seeds: seeds}
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
// and, with opts.Warm, seeds the other searches from its verdicts.
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
	// here, before any space, measurer or worker exists.
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
	run := func(idxs []int, cands []scored) {
		fanIndexed(len(idxs), workers, func(j int) {
			slots <- struct{}{}
			defer func() { <-slots }()
			t := tasks[idxs[j]]
			to := opts.Tune
			to.warm, to.floorPatience = seedsFor(t.sp, cands, to.NoPrune), true
			if lead := p.lead(t.owner); lead == t {
				defer close(t.done)
				to.booked = t.book
			} else {
				to.lead, to.leadDirect = follower{lead, slots}.after, lead.Kind == Direct
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
		// The searches rank candidates read once, before any of them runs,
		// so none feeds another and any worker count gives the same seeds.
		// A kind with no candidate yet first runs one cold search per layer
		// family (kernel extent × stride), whose verdicts the rest rank.
		kind := tasks[idxs[0]].Kind
		cands := cache.candidates(arch.Name, kind, opts.Tune.NoPrune)
		if len(cands) == 0 {
			var wave0, rest []int
			cold := make(map[[2]int]bool)
			for _, i := range idxs {
				s := tasks[i].Shape
				if fam := [2]int{s.Hker, s.Strid}; !cold[fam] {
					cold[fam] = true
					wave0 = append(wave0, i)
				} else {
					rest = append(rest, i)
				}
			}
			run(wave0, nil)
			idxs, cands = rest, cache.candidates(arch.Name, kind, opts.Tune.NoPrune)
		}
		run(idxs, cands)
	}

	// The schedule runs once per kind, side by side. Each layer has one
	// lead search, which waits on nothing; every other search of the layer
	// is a follower, whose gap stop reads the lead's incumbent after a given
	// number of the lead's measurements and waits for it (Options.lead), so
	// what it reads is the same whatever the timing. A lead is a Winograd
	// search or a Direct one, and a Direct search follows only a Winograd
	// one: the Winograd schedule always finishes, then the Direct one, then
	// the rest. A search ranks only its own kind's verdicts, so the split
	// seeds every search as one schedule over all of live would.
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

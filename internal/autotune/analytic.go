package autotune

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// This file is the instant-verdict tier: a full design-space exploration
// that never measures anything. The paper's I/O lower bounds give an
// admissible per-config time floor (bound.go: the time model applied to the
// theorem's traffic and the kind's arithmetic floor); taken at the launch's
// own latency-hiding and bandwidth rates (analyticFloor) it orders
// configurations well enough to rank the whole space analytically — the
// idiom of analytical-characterization DSE, here serving as the service's
// degradation path. The scan runs once per Space (memoized like Size) and
// keeps the best few admissible, measurable configurations by floor; a
// verdict is then one lookup scaled by a calibration factor fitted to
// whatever measured rows the cache already holds. The scan is a best-first
// branch and bound (Space.bestFirst): each tile's thread-free floor bounds
// every configuration of the tile, the tiles are visited by ascending bound,
// and the walk stops at the first tile that cannot place a configuration in
// the top few — the same ranking a full enumeration yields, for a fraction
// of the floors. It bounds in two levels: a group — one (x, y, z, e) tile at
// all its Sb values and layouts — gets one floor ≤ its tiles' before any of
// theirs, and the walk floors a group's tiles only when it reaches the group.
// The engine's certificate (Space.minFloor) is the same walk, finding only
// the minimum floor. An analytic verdict is explicit about its
// provenance: LayerVerdict.Tier says whether a number was measured,
// estimated, or refined in the background after an estimate was served.

// Tier is the provenance of a layer verdict. The zero value is
// TierMeasured, so verdicts from the measured engine are unchanged by the
// existence of the analytic tier (zero-config equivalence).
type Tier uint8

const (
	// TierMeasured marks a verdict backed by the measured search engine.
	TierMeasured Tier = iota
	// TierAnalytic marks a measurement-free estimate from the bound-derived
	// time model: served instantly under overload, a tripped breaker, or a
	// deadline, and a candidate for background refinement.
	TierAnalytic
	// TierRefined marks a measured verdict that upgraded an earlier
	// analytic answer: the background refinement queue measured the same
	// key after an analytic verdict was served for it.
	TierRefined
)

func (t Tier) String() string {
	switch t {
	case TierAnalytic:
		return "analytic"
	case TierRefined:
		return "refined"
	}
	return "measured"
}

// analyticTopCap is how many configurations the scan retains, ranked by
// floor — enough for a top-k ranking display without re-enumerating.
const analyticTopCap = 8

// AnalyticVerdict is one measurement-free configuration estimate.
type AnalyticVerdict struct {
	Config conv.Config
	// Floor is the admissible bound-derived time of Config in seconds
	// (analyticFloor: the time model at the launch's own rates over the
	// I/O and arithmetic floors): no measurement of it can come in lower.
	Floor float64
	// Seconds is the served estimate: Floor scaled by the calibration
	// factor (≥ 1, fitted from measured rows when any exist).
	Seconds float64
}

// analyticScan retains the analyticTopCap best configurations of the space
// by the analytic floor (scoredBefore: ties by configLess). Only
// configurations the measurers would accept are ranked — the analytic winner
// must be directly usable as a launch configuration, and the regret property
// test measures it.
//
// It is the best-first walk, cut at the first tile — once the heap is full —
// that cannot hold an entrant: its bound is above the worst retained floor,
// or equal to it with tile dims after that item's, so every configuration
// of it would lose the cost tie on configLess. Inside a kept tile measurable
// runs only for a configuration that would enter the heap. The result is the
// full enumeration's: bestK keeps a pure function of its candidates, and the
// walk skips only configurations that could not be among them.
func (sp *Space) analyticScan() {
	var top bestK
	top.reset(analyticTopCap)
	sp.bestFirst(math.Inf(1), func(bound float64, t conv.Config) bool {
		if !top.full() {
			return false
		}
		w := top.items[0]
		return bound > w.cost || bound == w.cost && tileDimsAfter(t, w.cfg)
	}, func(c conv.Config) bool {
		s := scored{cfg: c, cost: sp.analyticFloor(c)}
		if s.cost > 0 && !math.IsInf(s.cost, 1) && top.admits(s) && sp.measurable(c) {
			top.push(s)
		}
		return true
	})
	sp.anTop = top.sorted(nil)
	if len(sp.anTop) == 0 {
		sp.anErr = fmt.Errorf("autotune: analytic tier: no rankable configuration for %v (%s)", sp.Shape, sp.Kind)
	}
	sp.anDone.Store(true)
}

// analyticFloor is the analytic tier's per-config time floor: the tight
// form of Space.floor, at the launch's own latency-hiding and bandwidth
// rates. It stays admissible — the measurement is the same time model at
// the same rates over at least this traffic and these flops — while ranking
// the space far better than the occupancy-blind pruning floor: a tiny-block
// config with low I/O but terrible latency hiding floats to the top of the
// raw bound and sinks here, exactly as it does on the device model.
func (sp *Space) analyticFloor(c conv.Config) float64 { return sp.floor(c, launchRates) }

// logFloor is the log of c's tight floor, the baseline a residual search's
// cost model learns against; ok is false when the floor is not positive and
// finite, so it gives no baseline.
func (sp *Space) logFloor(c conv.Config) (float64, bool) {
	f := sp.analyticFloor(c)
	if !(f > 0) || math.IsInf(f, 1) {
		return 0, false
	}
	return math.Log(f), true
}

// measurable applies the validation the Dry evaluators and MemoMeasure
// apply (the same row field MemoMeasure calls), so an analytic winner is
// never a config measurement would reject.
func (sp *Space) measurable(c conv.Config) bool {
	return sp.row.validate(c, sp.Shape, sp.Arch) == nil
}

// Analytic returns the space's best configuration by the bound-derived
// time model, without measuring anything. The scan behind it runs once per
// Space (the axes are immutable) and calibration only scales the estimate,
// never the ranking, so repeated calls are O(1) and deterministic. A
// calibration below 1 (or NaN) is treated as 1: the floor is admissible,
// so no honest estimate can undercut it.
func (sp *Space) Analytic(calibration float64) (AnalyticVerdict, error) {
	sp.anOnce.Do(sp.analyticScan)
	if sp.anErr != nil {
		return AnalyticVerdict{}, sp.anErr
	}
	return sp.estimate(sp.anTop[0], calibration), nil
}

// AnalyticTop returns up to k analytically-ranked configurations, best
// floor first (k ≤ the retained analyticTopCap; k < 1 returns all
// retained). Safe for concurrent use.
func (sp *Space) AnalyticTop(k int, calibration float64) ([]AnalyticVerdict, error) {
	sp.anOnce.Do(sp.analyticScan)
	if sp.anErr != nil {
		return nil, sp.anErr
	}
	if k < 1 || k > len(sp.anTop) {
		k = len(sp.anTop)
	}
	out := make([]AnalyticVerdict, k)
	for i, s := range sp.anTop[:k] {
		out[i] = sp.estimate(s, calibration)
	}
	return out, nil
}

// estimate is the served verdict of one retained configuration.
func (sp *Space) estimate(s scored, calibration float64) AnalyticVerdict {
	cal := calibration
	if !(cal > 1) {
		cal = 1
	}
	return AnalyticVerdict{Config: s.cfg, Floor: s.cost, Seconds: s.cost * cal}
}

// Calibration sampling caps: the factor is a broad-brush scale, so a
// bounded prefix of the (deterministically ordered) cache state is plenty
// and keeps calibration O(1)-ish on large caches.
const (
	calibrationMaxEntries = 32
	calibrationMaxRows    = 64
	calibrationMaxFactor  = 1e6
)

// CalibrateAnalytic fits a calibration factor for arch from cache on a
// throwaway tier; a caller that keeps a tier calls its Calibrate.
func CalibrateAnalytic(cache *Cache, arch memsim.Arch) float64 {
	return NewAnalyticDSE(arch).Calibrate(cache)
}

// Calibrate refits the tier's calibration factor from the measured rows
// persisted in cache for its architecture, installs it and returns it: the
// median ratio of measured seconds to the admissible floor, over the
// state-carrying entries with no dimension past ratioMaxDim (in
// deterministic key order, capped). The floor
// never exceeds a measured time, so the factor is ≥ 1; a nil, empty or
// stateless cache yields 1 (serve the raw floor). The floors are read off
// the tier's memoized spaces, so a refit after the cache grew builds only
// the spaces it has not met.
func (a *AnalyticDSE) Calibrate(cache *Cache) float64 {
	cal := a.fitCalibration(cache)
	a.mu.Lock()
	a.cal = cal
	a.mu.Unlock()
	return cal
}

func (a *AnalyticDSE) fitCalibration(cache *Cache) float64 {
	if cache == nil {
		return 1
	}
	var ratios []float64
	entries := cache.stateEntries(a.arch.Name)
	if len(entries) > calibrationMaxEntries {
		entries = entries[:calibrationMaxEntries]
	}
	for _, e := range entries {
		kind, err := kindFromString(e.Kind)
		if err != nil {
			continue
		}
		sp, err := a.space(kind, e.Shape.shape())
		if err != nil {
			continue
		}
		rows := e.history()
		if len(rows) > calibrationMaxRows {
			rows = rows[:calibrationMaxRows]
		}
		for _, h := range rows {
			if !h.OK || !(h.M.Seconds > 0) {
				continue
			}
			f := sp.analyticFloor(h.Config)
			if !(f > 0) || math.IsInf(f, 1) {
				continue
			}
			ratios = append(ratios, h.M.Seconds/f)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	return min(max(ratios[len(ratios)/2], 1), calibrationMaxFactor)
}

// dseKey addresses one memoized space of an AnalyticDSE.
type dseKey struct {
	kind Kind
	s    shapes.ConvShape
}

// AnalyticDSE is the reusable instant-verdict tier for one architecture: a
// map of (kind, shape) spaces — each carrying its memoized analytic scan —
// plus the current calibration factor. A long-running service keeps one
// per architecture and answers repeated shapes in O(1).
type AnalyticDSE struct {
	arch memsim.Arch

	mu     sync.Mutex
	spaces map[dseKey]*Space
	cal    float64
}

// NewAnalyticDSE builds an empty analytic tier for arch (calibration 1).
func NewAnalyticDSE(arch memsim.Arch) *AnalyticDSE {
	return &AnalyticDSE{arch: arch, spaces: make(map[dseKey]*Space), cal: 1}
}

// calibration reports the current calibration factor.
func (a *AnalyticDSE) calibration() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cal
}

// space returns the memoized Space for a (kind, shape), building it on
// first use; a scanned space costs one lookup. Scans run outside the lock,
// once per Space, and a first answer fans its pending ones across cores.
func (a *AnalyticDSE) space(kind Kind, s shapes.ConvShape) (*Space, error) {
	k := dseKey{kind: kind, s: s}
	a.mu.Lock()
	sp := a.spaces[k]
	a.mu.Unlock()
	if sp != nil {
		return sp, nil
	}
	sp, err := NewSpace(s, a.arch, kind, 0, true)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if prev := a.spaces[k]; prev != nil {
		sp = prev
	} else {
		a.spaces[k] = sp
	}
	a.mu.Unlock()
	return sp, nil
}

// NetworkKinds is the measurement-free analog of TuneNetwork with per-layer
// kernel choice: every layer gets an analytic verdict (Tier: TierAnalytic),
// choosing among Direct and the requested kinds by the analytic estimate
// under the same candidate-filtering rule the measured sweep uses. It never
// blocks on a measurement and never consults a cache. A first answer fans
// its spaces' scans across cores; a repeat starts no goroutine.
func (a *AnalyticDSE) NetworkKinds(layers []NetworkLayer, kinds []Kind) ([]LayerVerdict, error) {
	return a.NetworkKindsAt(layers, kinds, a.calibration())
}

// NetworkKindsAt is NetworkKinds priced at calibration factor cal instead of
// the tier's current one, for a caller that must know the factor its answer
// was priced at while another may refit the tier.
func (a *AnalyticDSE) NetworkKindsAt(layers []NetworkLayer, kinds []Kind, cal float64) ([]LayerVerdict, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("autotune: no layers to tune")
	}
	kindsOf := make([][]Kind, len(layers))
	for i, l := range layers {
		kindsOf[i] = CandidateKinds(l.Shape, false, kinds)
	}
	verdicts := make([]LayerVerdict, len(layers))
	if bad, err := a.layerVerdicts(verdicts, layers, kindsOf, cal); err != nil {
		return nil, fmt.Errorf("autotune: analytic tier: layer %q: %w", layers[bad].Name, err)
	}
	return verdicts, nil
}

// scanFan runs layerVerdicts' pending scans; tests count its calls.
var scanFan = fanIndexed

// kindSpace is a candidate kind's space in the tier, or why it has none.
type kindSpace struct {
	sp  *Space
	err error
}

// layerVerdicts sets out[i] to layers[i]'s layerVerdict over kindsOf[i],
// priced at calibration factor cal, if any, or returns a failing layer's
// index. It resolves each space once and
// fans the scans of two or more unscanned ones across cores; a scan is a pure
// function of its space, so verdicts do not depend on the worker count.
func (a *AnalyticDSE) layerVerdicts(out []LayerVerdict, layers []NetworkLayer, kindsOf [][]Kind, cal float64) (int, error) {
	size := 0
	for _, ks := range kindsOf {
		size += len(ks)
	}
	cands := make([]kindSpace, 0, size)
	var pending []*Space
	for i, l := range layers {
		for _, k := range kindsOf[i] {
			sp, err := a.space(k, l.Shape)
			if err == nil && !sp.anDone.Load() && !slices.Contains(pending, sp) {
				pending = append(pending, sp)
			}
			cands = append(cands, kindSpace{sp, err})
		}
	}
	if len(pending) > 1 {
		scanFan(len(pending), runtime.GOMAXPROCS(0), func(j int) { pending[j].anOnce.Do(pending[j].analyticScan) })
	}
	for i, l := range layers {
		if n := len(kindsOf[i]); n > 0 {
			v, err := layerVerdict(l, kindsOf[i], cands[:n], cal)
			if err != nil {
				return i, err
			}
			out[i], cands = v, cands[n:]
		}
	}
	return 0, nil
}

// layerVerdict is the best estimate over one layer's candidate kinds and
// their spaces, the mandatory Direct first. A kind may legitimately not admit
// the layer, or rank nothing in it; the others stand alone then — mirroring
// the measured sweep — and only a layer no kind can rank is an error (the
// first one met, Direct's when Direct failed).
func layerVerdict(l NetworkLayer, kinds []Kind, cands []kindSpace, cal float64) (LayerVerdict, error) {
	best := LayerVerdict{Layer: l, Tier: TierAnalytic}
	var firstErr error
	ranked := false
	for j, c := range cands {
		av, err := AnalyticVerdict{}, c.err
		if err == nil {
			av, err = c.sp.Analytic(cal)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !ranked || av.Seconds < best.M.Seconds {
			best.Kind, best.Config = kinds[j], av.Config
			best.M = Measurement{Seconds: av.Seconds}
			ranked = true
		}
	}
	if ranked {
		return best, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("autotune: analytic tier: no candidate kind for %v", l.Shape)
	}
	return LayerVerdict{}, firstErr
}

package autotune

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// This file is the instant-verdict tier: a full design-space exploration
// that never measures anything. The paper's I/O lower bounds already give
// an admissible per-config time floor (BoundSeconds: launch + waves +
// Q(Sb)·4B/bandwidth, plus flops/peak for direct); sharpened with the
// launch-geometry terms of the time model that are themselves lower bounds
// (analyticFloor), it orders configurations well enough to rank the whole
// space analytically — the idiom of analytical-characterization DSE, here
// serving as the service's degradation path. The scan enumerates every admissible, measurable
// configuration once per Space (memoized like Size), keeps the best few by
// floor, and a verdict is then one lookup scaled by a calibration factor
// fitted to whatever measured rows the cache already holds. An analytic
// verdict is explicit about its provenance: LayerVerdict.Tier says whether
// a number was measured, estimated, or refined in the background after an
// estimate was served.

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
	// (analyticFloor: launch + waves + the occupancy- and
	// efficiency-scaled I/O and arithmetic floors): no measurement of it
	// can come in lower.
	Floor float64
	// Seconds is the served estimate: Floor scaled by the calibration
	// factor (≥ 1, fitted from measured rows when any exist).
	Seconds float64
	// GFLOPS is the arithmetic throughput implied by Seconds.
	GFLOPS float64
	// Ranked is how many valid configurations the scan ordered.
	Ranked int64
}

// analyticScan enumerates the space once and retains the analyticTopCap
// best configurations by the analytic floor. Only configurations the
// measurers would accept are ranked — the analytic winner must be directly
// usable as a launch configuration, and the regret property test measures
// it.
func (sp *Space) analyticScan() {
	var top bestK
	top.reset(analyticTopCap)
	var ranked int64
	sp.enumerate(func(c conv.Config) bool {
		if !sp.measurable(c) {
			return true
		}
		f := sp.analyticFloor(c)
		if !(f > 0) || math.IsInf(f, 1) {
			return true
		}
		ranked++
		top.push(scored{cfg: c, cost: f})
		return true
	})
	sp.anRanked = ranked
	sp.anTop = top.sorted(nil)
	if len(sp.anTop) == 0 {
		sp.anErr = fmt.Errorf("autotune: analytic tier: no rankable configuration for %v (%s)", sp.Shape, sp.Kind)
	}
}

// analyticFloor is the analytic tier's per-config time floor: BoundSeconds
// sharpened with the launch-dependent terms of the time model that are
// themselves lower bounds. The measured model is sched + max(t_global,
// t_shared, t_compute) with t_global built from the dataflow's actual
// traffic (≥ the Theorem 4.12/4.20 bound Q at the same bandwidth
// efficiency) and t_compute from its actual flops (≥ the arithmetic floor
// at the same latency-hiding factor), so
//
//	sched + max(Q·4B/(bandwidth·eff), arith/(peak·hide))
//
// never exceeds a measurement — it stays admissible — while ranking the
// space far better than the occupancy-blind bound alone: a tiny-block
// config with low I/O but terrible latency hiding floats to the top of the
// raw bound and sinks here, exactly as it does on the device model.
func (sp *Space) analyticFloor(c conv.Config) float64 {
	l, sched, resident, ok := sp.launchFloor(c)
	if !ok {
		return sched
	}
	// hide and eff mirror memsim.Arch.Time exactly; recomputing them from
	// the same launch keeps the floor admissible term by term.
	concurrent := l.Blocks
	if resident < concurrent {
		concurrent = resident
	}
	activePerSM := float64(concurrent*l.ThreadsPerBlock) / float64(sp.Arch.NumSMs)
	hide := math.Min(1, activePerSM/float64(sp.Arch.ThreadsForPeak))
	if l.ThreadsPerBlock < 32 {
		hide *= float64(l.ThreadsPerBlock) / 32
	}
	if hide <= 0 {
		return math.Inf(1)
	}
	eff := l.BandwidthEff
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	ft := sp.floorTerms(c.SharedPerBlock, c.WinogradE)
	tGlobal := ft.q * 4 / (sp.Arch.BandwidthGBs * 1e9 * eff)
	tCompute := ft.arith / (sp.Arch.PeakGFLOPS * 1e9 * hide)
	// Fixed launches are costed exactly, so they join the floor as a
	// constant — still admissible, since every measurement pays exactly
	// this on top of its tunable launch.
	return sched + math.Max(tGlobal, tCompute) + sp.fixedSec
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
	vs, err := sp.AnalyticTop(1, calibration)
	if err != nil {
		return AnalyticVerdict{}, err
	}
	return vs[0], nil
}

// AnalyticTop returns up to k analytically-ranked configurations, best
// floor first (k ≤ the retained analyticTopCap; k < 1 returns all
// retained). Safe for concurrent use.
func (sp *Space) AnalyticTop(k int, calibration float64) ([]AnalyticVerdict, error) {
	sp.anOnce.Do(sp.analyticScan)
	if sp.anErr != nil {
		return nil, sp.anErr
	}
	cal := calibration
	if !(cal > 1) {
		cal = 1
	}
	if k < 1 || k > len(sp.anTop) {
		k = len(sp.anTop)
	}
	out := make([]AnalyticVerdict, 0, k)
	for _, s := range sp.anTop[:k] {
		sec := s.cost * cal
		out = append(out, AnalyticVerdict{
			Config:  s.cfg,
			Floor:   s.cost,
			Seconds: sec,
			GFLOPS:  sp.flops / sec / 1e9,
			Ranked:  sp.anRanked,
		})
	}
	return out, nil
}

// Calibration sampling caps: the factor is a broad-brush scale, so a
// bounded prefix of the (deterministically ordered) cache state is plenty
// and keeps calibration O(1)-ish on large caches.
const (
	calibrationMaxEntries = 32
	calibrationMaxRows    = 64
	calibrationMaxFactor  = 1e6
)

// CalibrateAnalytic fits the analytic tier's calibration factor from the
// measured rows persisted in cache for arch: the median ratio of measured
// seconds to the admissible floor, over the state-carrying entries (in
// deterministic key order, capped). The floor never exceeds a measured
// time, so the factor is ≥ 1; an empty or stateless cache yields 1 (serve
// the raw floor).
func CalibrateAnalytic(cache *Cache, arch memsim.Arch) float64 {
	if cache == nil {
		return 1
	}
	var ratios []float64
	entries := cache.stateEntries(arch.Name)
	if len(entries) > calibrationMaxEntries {
		entries = entries[:calibrationMaxEntries]
	}
	for _, e := range entries {
		kind, err := kindFromString(e.Kind)
		if err != nil {
			continue
		}
		sp, err := NewSpace(e.Shape.shape(), arch, kind, 0, true)
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
	cal := ratios[len(ratios)/2]
	if !(cal > 1) {
		cal = 1
	}
	if cal > calibrationMaxFactor {
		cal = calibrationMaxFactor
	}
	return cal
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

// SetCalibration installs a new calibration factor (clamped to ≥ 1); see
// CalibrateAnalytic.
func (a *AnalyticDSE) SetCalibration(f float64) {
	if !(f > 1) {
		f = 1
	}
	a.mu.Lock()
	a.cal = f
	a.mu.Unlock()
}

// Calibration reports the current calibration factor.
func (a *AnalyticDSE) Calibration() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cal
}

// space returns the memoized Space for a (kind, shape), building it on
// first use. The scan itself runs outside the lock (once-guarded per
// Space), so concurrent callers on distinct shapes do not serialize.
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

// Layer returns the analytic verdict for one (kind, shape).
func (a *AnalyticDSE) Layer(kind Kind, s shapes.ConvShape) (AnalyticVerdict, error) {
	sp, err := a.space(kind, s)
	if err != nil {
		return AnalyticVerdict{}, err
	}
	return sp.Analytic(a.Calibration())
}

// NetworkKinds is the measurement-free analog of TuneNetwork with per-layer
// kernel choice: every layer gets an analytic verdict (Tier: TierAnalytic),
// choosing among Direct and the requested kinds by the analytic estimate
// under the same candidate-filtering rule the measured sweep uses. It never
// blocks on a measurement and never consults a cache.
func (a *AnalyticDSE) NetworkKinds(layers []NetworkLayer, kinds []Kind) ([]LayerVerdict, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("autotune: no layers to tune")
	}
	verdicts := make([]LayerVerdict, len(layers))
	for i, l := range layers {
		av, err := a.Layer(Direct, l.Shape)
		if err != nil {
			return nil, fmt.Errorf("autotune: analytic tier: layer %q: %w", l.Name, err)
		}
		v := LayerVerdict{Layer: l, Kind: Direct, Config: av.Config,
			M: Measurement{Seconds: av.Seconds, GFLOPS: av.GFLOPS}, Tier: TierAnalytic}
		for _, kind := range CandidateKinds(l.Shape, false, kinds)[1:] {
			// A kind may legitimately not admit the layer; the incumbent
			// estimate stands alone then — mirroring the measured sweep.
			if kv, kerr := a.Layer(kind, l.Shape); kerr == nil && kv.Seconds < v.M.Seconds {
				v.Kind, v.Config = kind, kv.Config
				v.M = Measurement{Seconds: kv.Seconds, GFLOPS: kv.GFLOPS}
			}
		}
		verdicts[i] = v
	}
	return verdicts, nil
}

// analyticLayerVerdict answers one layer from the analytic tier using the
// already-built task spaces (the mandatory Direct space first) —
// TuneNetwork's degradation path for a layer whose search errored. ok is
// false when no space can rank anything.
func analyticLayerVerdict(l NetworkLayer, spaces []*Space, calibration float64) (LayerVerdict, bool) {
	av, err := spaces[0].Analytic(calibration)
	best := LayerVerdict{Layer: l, Kind: spaces[0].Kind, Config: av.Config,
		M: Measurement{Seconds: av.Seconds, GFLOPS: av.GFLOPS}, Tier: TierAnalytic}
	ok := err == nil
	for _, sp := range spaces[1:] {
		if kv, kerr := sp.Analytic(calibration); kerr == nil && (!ok || kv.Seconds < best.M.Seconds) {
			best.Kind, best.Config = sp.Kind, kv.Config
			best.M = Measurement{Seconds: kv.Seconds, GFLOPS: kv.GFLOPS}
			ok = true
		}
	}
	return best, ok
}

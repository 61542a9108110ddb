package autotune

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// SearchTrace is one search a sweep ran: its space and its trace, and for a
// follower the final verdict of its layer's lead (+Inf where that failed; 0
// on a lead) and the lead's kind.
type SearchTrace struct {
	*Trace
	Space    *Space
	Lead     float64
	LeadKind Kind
}

// TuneNetworkTraces is TuneNetwork that also hands back the searches the
// sweep ran itself, in schedule order, with their spaces and traces — the
// in-memory engine state (Trace.Refits, Trace.Stop) no verdict or cache entry
// carries — for the tests and benchmarks that live outside the package beside
// the model zoo.
func TuneNetworkTraces(arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, []SearchTrace, error) {
	return TuneNetworkTracesContext(context.Background(), arch, layers, cache, opts)
}

// TuneNetworkTracesContext is TuneNetworkTraces bounded by ctx, as
// TuneNetworkContext bounds TuneNetwork.
func TuneNetworkTracesContext(ctx context.Context, arch memsim.Arch, layers []NetworkLayer, cache *Cache, opts NetworkOptions) ([]LayerVerdict, []SearchTrace, error) {
	plan := planSweep(arch, layers, opts)
	if err := plan.run(ctx, cache, opts); err != nil {
		return nil, nil, err
	}
	var searches []SearchTrace
	for _, t := range plan.tasks {
		if !t.shared && t.trace != nil {
			s := SearchTrace{Trace: t.trace, Space: t.sp}
			if lead := plan.lead(t.owner); lead != t {
				s.Lead, s.LeadKind = math.Inf(1), lead.Kind
				if lead.err == nil {
					s.Lead = lead.m.Seconds
				}
			}
			searches = append(searches, s)
		}
	}
	verdicts, err := plan.chooseKinds(opts)
	return verdicts, searches, err
}

// snapshot copies every entry keyed by cache key.
func (c *Cache) snapshot() map[string]CacheEntry {
	all := make(map[string]CacheEntry)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			all[k] = e
		}
		sh.mu.RUnlock()
	}
	return all
}

// Restarted is what a Save/Load round trip of c yields — its entries, bit for
// bit (floats round-trip exactly), in a new cache — without the JSON, which
// would cost a test more than the sweeps it checks.
func Restarted(c *Cache) *Cache {
	out := NewCache()
	for key, e := range c.snapshot() {
		out.put(key, e, nil)
	}
	return out
}

// WarmSeeds are the seeds a warm search of sp ranks from the cache's verdicts
// of its (arch, kind), as a sweep with the given NoPrune ranks them (nil
// when none lands in sp), and WarmSeedCount is their cap.
func WarmSeeds(c *Cache, sp *Space, noPrune bool) []conv.Config {
	if w := seedsFor(sp, c.candidates(sp.Arch.Name, sp.Kind, noPrune), noPrune); w != nil {
		return w.Seeds
	}
	return nil
}

const WarmSeedCount = warmSeeds

// GapRatio is the gap stop's G: a StopGap search proved that no measurable
// configuration has a tight floor below Trace.GapRef / GapRatio.
const GapRatio = gapRatio

// SweepPatience is the Patience a sweep search of sp waits under
// DefaultOptions, recomputed from the space's minimum tight floor
// (sweepPatience).
func SweepPatience(sp *Space) int { return sweepPatience(sp.MinFloor(), DefaultOptions()) }

// SweepGapWait is g(f) at the Patience a sweep search of sp waits under
// DefaultOptions: a gap stop taken f fresh measurements after the search's
// last significant improvement proved that no measurable configuration has
// a tight floor below Trace.GapRef / SweepGapWait(sp, f), f below that
// Patience.
func SweepGapWait(sp *Space, f int) float64 { return gapWait(f, SweepPatience(sp)) }

// StopMismatch describes how tr's stop fields disagree, or is "" when they
// agree: a waived stop is a gap stop, exactly a gap stop carries a GapRef,
// and a certified stop ends at the booking that proved it — the incumbent's
// last improvement, on a run that replays no history. A stop rewritten by a
// later check shows here.
func StopMismatch(tr *Trace) string {
	switch {
	case tr.Waived && tr.Stop != StopGap:
		return fmt.Sprintf("waived, stop %v", tr.Stop)
	case (tr.Stop == StopGap) != (tr.GapRef > 0):
		return fmt.Sprintf("stop %v against %v", tr.Stop, tr.GapRef)
	case tr.Stop == StopCertified && tr.ConvergedAt != tr.Measurements:
		return fmt.Sprintf("certified after %d measurements, last improved at %d", tr.Measurements, tr.ConvergedAt)
	}
	return ""
}

// MinFloor is the space's minimum tight floor over its measurable
// configurations, with no incumbent to seed the scan.
func (sp *Space) MinFloor() float64 { return sp.minFloor(math.Inf(1)) }

// ScanMismatch describes how the space's analytic scan differs from the full
// enumeration's ranking, or is "" when it keeps the same configurations at
// the same floors, bit for bit.
func (sp *Space) ScanMismatch() string { return scanMismatch(sp) }

// Optimum dry-measures every configuration of the space and returns the
// fastest measurement; ok is false when nothing measures. above describes
// the first configuration whose tight floor lies above its measurement, or
// is "" when the floor holds under every one.
func (sp *Space) Optimum() (best Measurement, above string, ok bool) {
	measure := KindMeasurer(sp.Arch, sp.Shape, sp.Kind)
	sp.enumerate(func(c conv.Config) bool {
		m, mok := measure(c)
		if !mok {
			return true
		}
		if f := sp.analyticFloor(c); above == "" && !(f <= m.Seconds) {
			above = fmt.Sprintf("%v: tight floor %v above measured %v", c, f, m.Seconds)
		}
		if !ok || m.Seconds < best.Seconds {
			best, ok = m, true
		}
		return true
	})
	return best, above, ok
}

// scanned reports whether the space's analytic scan has run.
func (sp *Space) scanned() bool { return sp.anDone.Load() }

// Layer is the tier's analytic verdict for one (kind, shape), asked alone.
func (a *AnalyticDSE) Layer(kind Kind, s shapes.ConvShape) (AnalyticVerdict, error) {
	sp, err := a.space(kind, s)
	if err != nil {
		return AnalyticVerdict{}, err
	}
	return sp.Analytic(a.calibration())
}

// scannedSpaces counts the tier's memoized spaces whose scan has run.
func (a *AnalyticDSE) scannedSpaces() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, sp := range a.spaces {
		if sp.scanned() {
			n++
		}
	}
	return n
}

// CheckGolden compares got with testdata/<name>, or rewrites the file under
// -update, for the golden tests outside the package.
func CheckGolden(t *testing.T, name string, got []byte) { checkGolden(t, name, got) }

// CountScanFans counts the analytic tier's scan fans (layerVerdicts) until
// tb ends; the returned func reads the count.
func CountScanFans(tb testing.TB) func() int64 {
	var n atomic.Int64
	fan := scanFan
	scanFan = func(k, workers int, fn func(int)) {
		n.Add(1)
		fan(k, workers, fn)
	}
	tb.Cleanup(func() { scanFan = fan })
	return n.Load
}

// AssertWritersMatchTraces and AssertBestSoFar (codec_test.go) check a cache
// a zoo pass filled against the reference encoder, and a trace's best-so-far
// series against its verdict and ConvergedAt.
var (
	AssertWritersMatchTraces = assertWritersMatchTraces
	AssertBestSoFar          = assertBestSoFar
)

// TuneCached returns the cached best for (arch, kind, shape) or runs the
// engine and caches its verdict with engine state. Concurrent callers with
// the same key share one search.
func TuneCached(cache *Cache, sp *Space, measure Measurer, opts Options) (conv.Config, Measurement, error) {
	out, _ := tuneShared(context.Background(), cache, sp, LiftMeasurer(measure), opts, false)
	return out.cfg, out.m, out.err
}

// State returns a cached entry's persisted measurement history; ok is false
// when the key is absent or the entry is verdict-only.
func (c *Cache) State(archName string, kind Kind, s shapes.ConvShape) ([]MeasuredConfig, bool) {
	e, ok := c.Entry(archName, kind, s)
	if !ok || len(e.Rows) == 0 {
		return nil, false
	}
	return e.history(), true
}

// fitsIn reports whether a value survives conversion to a field's type.
func fitsIn[T int8 | int16 | int32](T) func(int) bool {
	return func(v int) bool { return int(T(v)) == v }
}

// RowFitMismatch names a value the space can emit on an axis that does not
// fit its cachedConfig field, or one of samples random configs that
// configToCached does not carry through unchanged; "" when there is none.
func (sp *Space) RowFitMismatch(samples int) string {
	var cc cachedConfig // its field types are the widths checked
	var xs, ys, txs, tys, tzs, layouts []int
	for _, e := range sp.row.edges {
		xs = append(xs, sp.xsByE[e]...)
		ys = append(ys, sp.ysByE[e]...)
	}
	for _, x := range xs {
		txs = append(txs, sp.factors(x)...)
	}
	for _, y := range ys {
		tys = append(tys, sp.factors(y)...)
	}
	for _, z := range sp.zs {
		tzs = append(tzs, sp.factors(z)...)
	}
	for _, l := range sp.row.layouts {
		layouts = append(layouts, int(l))
	}
	for _, a := range []struct {
		name string
		vals []int
		fits func(int) bool
	}{
		{"TileX", xs, fitsIn(cc.TileX)}, {"TileY", ys, fitsIn(cc.TileY)}, {"TileZ", sp.zs, fitsIn(cc.TileZ)},
		{"ThreadsX", txs, fitsIn(cc.ThreadsX)}, {"ThreadsY", tys, fitsIn(cc.ThreadsY)}, {"ThreadsZ", tzs, fitsIn(cc.ThreadsZ)},
		{"SharedPerBlock", sp.sbs, fitsIn(cc.SharedPerBlock)},
		{"Layout", layouts, fitsIn(cc.Layout)}, {"WinogradE", sp.row.edges, fitsIn(cc.WinogradE)},
	} {
		for _, v := range a.vals {
			if !a.fits(v) {
				return fmt.Sprintf("%s value %d does not fit its cached field", a.name, v)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range samples {
		if c := sp.randomConfig(rng); configToCached(c).config() != c {
			return fmt.Sprintf("config %+v does not survive a cached row", c)
		}
	}
	return ""
}

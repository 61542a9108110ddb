package main

import (
	"fmt"
	"net/http"
	"slices"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. The set-ups that tune the zoo take 5-8 s each and the driver's 92
// runs share one hour: they get three where the set-up's tunes are also the
// run's first touches (hit-replay), else two. cold-zoo's and shed-analytic's
// boot a daemon and send it one small request, a tenth of a second; all but
// the last of shed-analytic's then rehearse the pool's first touches (see
// rehearse), two seconds each.
var setupReps = map[string]int{coldZoo: 15, hitReplay: 3, shedAnalytic: 4, clusterMixed: 2}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract with the driver.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// firstTouches is, per network of the plan, what its first answer from a
// daemon took, in ms: one sample per repeat the run made of it.
type firstTouches map[int][]float64

func (ft firstTouches) add(net int, ms float64) { ft[net] = append(ft[net], ms) }

// take adds the first answers f's set-up (and rehearsal) got.
func (ft firstTouches) take(f *fixture) {
	for net, ms := range f.firstMS {
		ft.add(net, ms)
	}
}

// runOnce runs one workload once. Untraced it reports the end-to-end
// metrics; traced it reports the per-layer ones and writes the trace file.
func runOnce(workload string, seed int64, seconds int, trace bool, sc scale) (res result, err error) {
	reps, known := setupReps[workload]
	if !known {
		return res, fmt.Errorf("unknown workload %q", workload)
	}
	if trace || sc != (scale{}) {
		reps = 1 // setup_s is an end-to-end metric; the smoke test has no time
	}
	var f *fixture
	var setups []float64
	firsts := make(firstTouches)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if f, err = setUp(workload, seed, seconds, sc); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == reps-1 {
			break // this one serves the window
		}
		err = f.rehearse()
		firsts.take(f)
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", workload, err)
		}
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	firsts.take(f)
	if err = f.warmUp(); err != nil {
		return res, fmt.Errorf("%s warm-up: %w", workload, err)
	}

	w, err := f.runWindow(seconds, sc)
	if err != nil {
		return res, err
	}
	var values map[string]float64
	defs := endToEnd
	if trace {
		// w becomes the untraced reference: the traced window runs the same
		// seed on a fresh set-up, so the two differ by the trace alone.
		defs = perLayer
		ref := w
		if err = f.close(); err != nil {
			return res, err
		}
		if f, err = setUp(workload, seed, seconds, sc); err != nil {
			return res, err
		}
		if err = f.warmUp(); err != nil {
			return res, fmt.Errorf("%s warm-up: %w", workload, err)
		}
		mirror, err := mirrorCache(f.daemons)
		if err != nil {
			return res, err
		}
		if w, err = f.runWindow(seconds, sc); err != nil {
			return res, err
		}
		mt := fullTimer
		if sc.sampleTime > 0 {
			mt.sampleTime = sc.sampleTime
		}
		if values, err = f.layerMetrics(ref, w, mirror, seed, mt); err != nil {
			return res, err
		}
	}
	res.Attempted = len(w.obs)
	res.Failed = f.verify(w)
	res.Correct = res.Failed == 0
	if !trace {
		if values, err = f.endToEndMetrics(w, median(setups), firsts); err != nil {
			return res, err
		}
	}
	res.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	return res, nil
}

// verify runs the oracle over the window's distinct responses and returns
// how many requests failed: a non-200, an answer that fails a check, or one
// that diverges (see divergent). Not so on cluster-mixed: there two owners can
// hold different verdicts for one network (a hedged pre-tune searches on
// both), so each distinct answer is checked on its own and the divergent
// requests are counted as cluster.divergent_replays.
func (f *fixture) verify(w *window) int {
	bad := make([]bool, len(w.responses))
	for i, r := range w.responses {
		n := f.plan.nets[r.net]
		if err := f.oracle.check(n, r.body, f.workload == shedAnalytic); err != nil {
			bad[i] = true
			fmt.Printf("FAIL %s: %s: %v\n", f.workload, n.name, err)
		}
	}
	diverges := w.divergent()
	failed := 0
	for i, o := range w.obs {
		switch {
		case o.status != http.StatusOK:
			fmt.Printf("FAIL %s: %s: status %d\n", f.workload, f.plan.nets[o.net].name, o.status)
		case diverges[i] && f.workload != clusterMixed:
			fmt.Printf("FAIL %s: an answer for %s differs from the first of its kind\n", f.workload, f.plan.nets[o.net].name)
		case !bad[o.resp]:
			continue
		}
		failed++
	}
	return failed
}

// divergent marks the 200s whose body is not the one the first request of
// their kind for their network got: a replay must be byte-identical to the
// first replay, and a cold answer (cold-zoo gets one per pass) to the first
// cold answer — the two differ from each other in their verdicts' "shared".
func (w *window) divergent() []bool {
	type kind struct {
		net   int
		first bool
	}
	want := make(map[kind]int)
	out := make([]bool, len(w.obs))
	for i, o := range w.obs {
		if o.resp < 0 {
			continue
		}
		k := kind{o.net, o.first}
		if resp, seen := want[k]; !seen {
			want[k] = o.resp
		} else {
			out[i] = resp != o.resp
		}
	}
	return out
}

// reqP50 is the latency of a window's repeat requests — every 200 but the
// first for a network its daemons had not seen: the median per network, and
// over the networks the mean, each weighing in by its requests. A window's
// networks differ five-fold in what an answer costs; the median of the pooled
// latencies sits wherever two of them meet and jumps between runs.
func reqP50(os []obs) float64 {
	byNet := make(map[int][]float64)
	for _, o := range os {
		if !o.first && o.status == http.StatusOK {
			byNet[o.net] = append(byNet[o.net], o.ms())
		}
	}
	var sum, n float64
	for _, ms := range byNet {
		sum += median(ms) * float64(len(ms))
		n += float64(len(ms))
	}
	return ratio(sum, n)
}

// endToEndMetrics turns a window into the registry's end-to-end metrics.
// firsts holds the first touches of the set-ups; the window's are added.
func (f *fixture) endToEndMetrics(w *window, setupS float64, firsts firstTouches) (map[string]float64, error) {
	served := make([]int, len(w.responses))
	for _, o := range w.obs {
		if o.first {
			firsts.add(o.net, o.ms())
		}
		if o.resp >= 0 {
			served[o.resp]++
		}
	}
	// A first touch is of a novel network where the workload has any, else
	// of the zoo; a network's is the fastest of its repeats.
	var touch []float64
	novel := len(f.plan.nets) > zooSize
	for net, ms := range firsts {
		if (net >= zooSize) == novel {
			touch = append(touch, slices.Min(ms))
		}
	}
	if len(touch) == 0 {
		return nil, fmt.Errorf("%s: the run reached no new network", f.workload)
	}
	networkMS, gap, err := f.oracle.quality(f.plan.nets, w.responses, served)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.workload, err)
	}

	// Fresh measurements per cold network: the window's cold tunes where
	// it has any, else the set-up's (the daemons count since boot).
	var perCold float64
	switch f.workload {
	case coldZoo:
		perCold = w.after.measurements / zooSize
	case clusterMixed:
		perCold = w.after.minus(w.before).measurements / float64(len(touch))
	default:
		perCold = w.after.measurements / float64(f.setupCold)
	}
	return map[string]float64{
		"setup_s":        setupS,
		"req_p50_ms":     reqP50(w.obs),
		"first_touch_ms": mean(touch),
		"measurements":   perCold,
		"network_ms":     networkMS,
		"bound_gap":      gap,
		"live_heap_mb":   w.heapMB,
	}, nil
}

package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/tuned"
)

// Load shape. The daemon's callers are compilers blocking on a verdict, so
// every workload is a closed loop: a client sends its next request when the
// previous one is answered. This box has two cores. hit-replay, whose requests
// spend 20 of their 27 ms waiting on the batch timer, has two clients on two
// keep-alive connections: the one workload where requests meet in the daemon.
// The others have one. cold-zoo's passes are sequential by definition.
// shed-analytic's answers are 0.1 ms of CPU with no wait in them, and
// cluster-mixed has three daemons tuning, replicating and hedging behind each
// request: there a second client measured the box's scheduler, not the daemon.
// Ten runs with two clients against ten with one, taken in turns: the same
// req_p50_ms on shed-analytic (0.209 against 0.214 ms) with a spread between
// runs of 0.14 against 0.03; on cluster-mixed a spread of 0.17 against 0.04,
// and of 0.23 against 0.08 in first_touch_ms.
var clients = map[string]int{coldZoo: 1, hitReplay: 2, shedAnalytic: 1, clusterMixed: 1}

const (
	// poolSize is shed-analytic's pool of novel networks. The daemon scans a
	// network's search spaces on its first analytic answer, 40-100 ms each: a
	// pool of 24 keeps those first touches to a quarter of an eight-second
	// window.
	poolSize = 24
	// freshBudget is the per-layer budget of cluster-mixed's fresh tunes.
	freshBudget = 48
	// coldPasses is how many passes cold-zoo makes at least (it makes more
	// while the window's time is not up), and coldReplays how often a pass
	// asks for the zoo again once it is tuned.
	coldPasses, coldReplays = 3, 3
	// replayCycle is the length of the pre-drawn sequence the two replay
	// workloads cycle through until the time is up.
	replayCycle = 6000
	// clusterRate sizes cluster-mixed's window, which is a fixed sequence and
	// not a fixed time: requests per second of --seconds, what the cluster
	// serves one client today. How many fresh networks the window tunes
	// decides what the caches hold at its end and how many searches were
	// hedged, so a window cut by the clock moved live_heap_mb and measurements
	// with the box's speed.
	clusterRate = 21
)

// scale shrinks a workload for the smoke test; the zero value is full size.
type scale struct {
	budget   int // per-layer budget of every request (0 = the workload's own)
	layers   int // layers kept of each zoo network (0 = all)
	requests int // a closed-loop window also stops after this many requests
	passes   int // cold-zoo also stops after this many passes
	pool     int // shed-analytic pool size (0 = poolSize)
	// sampleTime is the micro-timer's sample length (0 = fullTimer's).
	sampleTime time.Duration
}

// fixture is a workload after set-up: daemons up, caches in the state the
// window expects, inputs drawn.
type fixture struct {
	workload string
	client   *http.Client
	daemons  []*daemon
	plan     plan
	oracle   *oracle
	// setupCold is how many networks the set-up tuned cold.
	setupCold int
	// asked is the networks these daemons have answered, and firstMS what
	// each one's first answer took during set-up.
	asked   map[int]bool
	firstMS map[int]float64
}

// close stops the daemons; a nil fixture (a set-up that failed) has none.
func (f *fixture) close() error {
	if f == nil {
		return nil
	}
	f.client.CloseIdleConnections()
	return closeAll(f.daemons)
}

// setUp builds a workload's fixture. Everything random comes from seed.
func setUp(workload string, seed int64, seconds int, sc scale) (*fixture, error) {
	f := &fixture{workload: workload, client: newClient(clients[workload]), oracle: newOracle(),
		asked: make(map[int]bool), firstMS: make(map[int]float64)}
	if err := f.setUp(seed, seconds, sc); err != nil {
		f.close()
		return nil, fmt.Errorf("%s set-up: %w", workload, err)
	}
	return f, nil
}

func (f *fixture) setUp(seed int64, seconds int, sc scale) error {
	rng := rand.New(rand.NewSource(seed))
	nets, err := zoo(seed, sc.budget, sc.layers)
	if err != nil {
		return err
	}
	switch f.workload {
	case coldZoo:
		// Each pass boots a daemon of its own the same way; what the set-up
		// times is how long one takes to come up and answer a first, small
		// request. A boot alone is a millisecond of thread wake-ups, which
		// the box's phases move by 45% between two sets of ten runs.
		f.plan = plan{nets: nets}
		if f.daemons, err = bootAll(f.client, 1, daemonConfig); err != nil {
			return err
		}
		n, err := tripNetwork()
		if err != nil {
			return err
		}
		return f.ask(-1, n, false)

	case hitReplay:
		if f.daemons, err = bootAll(f.client, 1, daemonConfig); err != nil {
			return err
		}
		f.plan = blockPlan(rng, nets, replayCycle, 1, 0, 1)
		return f.preTune()

	case shedAnalytic:
		if f.daemons, err = bootAll(f.client, 1, deadBackendConfig); err != nil {
			return err
		}
		pool := sc.pool
		if pool == 0 {
			pool = poolSize
		}
		novel, err := novelNetworks(rng, nets, pool, sc.budget)
		if err != nil {
			return err
		}
		// Half zoo, half pool.
		f.plan = blockPlan(rng, append(nets, novel...), replayCycle, 1, zooSize, 1)
		return f.trip()

	case clusterMixed:
		if f.daemons, err = bootAll(f.client, 3, daemonConfig); err != nil {
			return err
		}
		budget := freshBudget
		if sc.budget > 0 {
			budget = sc.budget
		}
		// 24 replays to 6 fresh tunes a block: 80% to 20%. The sequence is
		// whole blocks, so every window tunes the same number of networks.
		const zooReps, freshPer = 4, 6
		const block = zooReps*zooSize + freshPer
		blocks := (seconds*clusterRate + block - 1) / block
		novel, err := novelNetworks(rng, nets, blocks*freshPer, budget)
		if err != nil {
			return err
		}
		f.plan = blockPlan(rng, append(nets, novel...), blocks*block, zooReps, freshPer, len(f.daemons))
		return f.preTune()
	}
	return fmt.Errorf("unknown workload")
}

// bootAll boots one daemon, or a cluster of n, and waits for each one's
// first 200 on /healthz, the way a deployment learns a replica is up.
func bootAll(c *http.Client, n int, cfg func() tuned.Config) ([]*daemon, error) {
	var ds []*daemon
	var err error
	if n == 1 {
		var d *daemon
		if d, err = bootDaemon(cfg(), nil); err == nil {
			ds = []*daemon{d}
		}
	} else {
		ds, err = bootCluster(n, cfg)
	}
	for _, d := range ds {
		if err == nil {
			_, err = health(c, d.url)
		}
	}
	if err != nil {
		closeAll(ds)
		return nil, err
	}
	return ds, nil
}

// ask POSTs one network to the first daemon outside the window and checks
// the answer; any failure fails the run. net is the network's index in the
// plan (-1: not of the plan); its first answer's latency is kept.
func (f *fixture) ask(net int, n network, analytic bool) error {
	status, body, lat, err := postTune(f.client, f.daemons[0].url, n.body)
	if err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", n.name, status, body)
	}
	if err := f.oracle.check(n, body, analytic); err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	if net >= 0 && !f.asked[net] {
		f.asked[net] = true
		f.firstMS[net] = float64(lat) / float64(time.Millisecond)
	}
	return nil
}

// askAll asks for nets[from:to] once, in order.
func (f *fixture) askAll(from, to int, analytic bool) error {
	for i := from; i < to; i++ {
		if err := f.ask(i, f.plan.nets[i], analytic); err != nil {
			return err
		}
	}
	return nil
}

// preTune asks for the zoo once, in order, and waits for hedged duplicates
// and replication to settle.
func (f *fixture) preTune() error {
	if err := f.askAll(0, zooSize, false); err != nil {
		return fmt.Errorf("pre-tune: %w", err)
	}
	f.setupCold = zooSize
	_, err := settled(f.client, f.daemons)
	return err
}

// trip sends one small network into the dead backend: its searches fail, the
// breaker opens, and the answer is already analytic.
func (f *fixture) trip() error {
	n, err := tripNetwork()
	if err != nil {
		return err
	}
	if err := f.ask(-1, n, true); err != nil {
		return fmt.Errorf("trip breaker: %w", err)
	}
	h, err := health(f.client, f.daemons[0].url)
	if err != nil {
		return err
	}
	if h.Breaker != "open" {
		return fmt.Errorf("breaker is %q after the trip request, want open", h.Breaker)
	}
	f.setupCold = 1
	return nil
}

// rehearse is what a set-up that will not serve the window is still good
// for: on shed-analytic its fresh daemon answers the pool once, one more
// first touch of every pool network. Elsewhere the set-up's own pre-tune was
// that.
func (f *fixture) rehearse() error {
	if f.workload != shedAnalytic {
		return nil
	}
	return f.askAll(zooSize, len(f.plan.nets), true)
}

// warmUp runs between the last set-up and the window. On shed-analytic it
// asks for the zoo once: the analytic tier scans a network's search spaces on
// its first answer, the zoo's take five seconds, and the window is for the
// steady state and the pool's first touches. It is in neither setup_s nor the
// window; the same scans, of the pool, are first_touch_ms.
func (f *fixture) warmUp() error {
	if f.workload != shedAnalytic {
		return nil
	}
	return f.askAll(0, zooSize, true)
}

// obs is one request as the client saw it.
type obs struct {
	net, replica int
	start, end   time.Duration // since the window opened
	status       int
	resp         int  // index into window.responses; -1 for a non-200
	first        bool // the daemons had not been asked for this network before
}

func (o obs) ms() float64 { return float64(o.end-o.start) / float64(time.Millisecond) }

// response is one distinct response body and the network it answers.
type response struct {
	net  int
	body []byte
}

// window is what one timed window produced.
type window struct {
	obs       []obs
	responses []response
	elapsed   time.Duration
	before    counters // the daemons' counters when the window opened
	after     counters // and once it had closed and settled
	heapMB    float64
	mallocs   uint64 // process-wide mallocs during the window
}

// recorder collects observations from the client goroutines and interns
// response bodies, so a replayed zoo network costs one comparison.
type recorder struct {
	mu        sync.Mutex
	obs       []obs
	responses []response
	byNet     map[int][]int // network -> indices of its distinct responses
	asked     map[int]bool  // networks the current daemons have been asked for
}

func newRecorder(asked map[int]bool) *recorder {
	return &recorder{byNet: make(map[int][]int), asked: asked}
}

// footprintMB is what the recorder itself holds. It grows with the window's
// throughput and is the harness's, so the heap reading leaves it out.
func (r *recorder) footprintMB() float64 {
	bytes := cap(r.obs) * int(unsafe.Sizeof(obs{}))
	for _, resp := range r.responses {
		bytes += cap(resp.body)
	}
	return float64(bytes) / (1 << 20)
}

func (r *recorder) add(o obs, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o.first = !r.asked[o.net]
	r.asked[o.net] = true
	o.resp = -1
	if o.status == http.StatusOK {
		for _, i := range r.byNet[o.net] {
			if string(r.responses[i].body) == string(body) {
				o.resp = i
			}
		}
		if o.resp < 0 {
			o.resp = len(r.responses)
			r.responses = append(r.responses, response{net: o.net, body: body})
			r.byNet[o.net] = append(r.byNet[o.net], o.resp)
		}
	}
	r.obs = append(r.obs, o)
}

// runWindow drives the fixture and returns what the clients saw. The oracle
// runs afterwards (see verify): nothing but load generation happens inside
// the window.
func (f *fixture) runWindow(seconds int, sc scale) (*window, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var w *window
	var err error
	if f.workload == coldZoo {
		w, err = f.runPasses(seconds, sc)
	} else {
		w, err = f.runClosedLoop(seconds, sc)
	}
	if err != nil {
		return nil, fmt.Errorf("%s window: %w", f.workload, err)
	}
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs
	return w, nil
}

// runClosedLoop is the window of the three workloads that replay: the
// clients work through the plan's sequence, around and around until the time
// is up — or, on cluster-mixed, once to its end (see clusterRate; the clock
// only guards against a cluster that has stopped answering).
func (f *fixture) runClosedLoop(seconds int, sc scale) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = readCounters(f.client, f.daemons); err != nil {
		return nil, err
	}
	rec := newRecorder(f.asked)
	limit := time.Duration(seconds) * time.Second
	requests := sc.requests
	if f.workload == clusterMixed {
		limit *= 6
		if requests == 0 {
			requests = len(f.plan.seq)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients[f.workload])
	start := time.Now()
	for c := 0; c < clients[f.workload]; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < limit {
				i := int(next.Add(1)) - 1
				if requests > 0 && i >= requests {
					return
				}
				d := f.plan.seq[i%len(f.plan.seq)]
				t0 := time.Since(start)
				status, body, lat, err := postTune(f.client, f.daemons[d.replica].url, f.plan.nets[d.net].body)
				if err != nil {
					errs <- err
					return
				}
				rec.add(obs{net: d.net, replica: d.replica, start: t0, end: t0 + lat, status: status}, body)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	w.obs, w.responses = rec.obs, rec.responses
	// Fresh tunes may still be replicating or finishing on a hedged owner.
	if w.after, err = settled(f.client, f.daemons); err != nil {
		return nil, err
	}
	w.heapMB = liveHeapMB() - rec.footprintMB()
	return w, nil
}

// runPasses is cold-zoo's window: coldPasses passes, and more while the time
// is not up, each on a daemon of its own. The counters and the heap are the
// last pass's.
func (f *fixture) runPasses(seconds int, sc scale) (*window, error) {
	w := &window{}
	rec := newRecorder(nil)
	limit := time.Duration(seconds) * time.Second
	start := time.Now()
	for pass := 0; (sc.passes == 0 || pass < sc.passes) && (pass < coldPasses || time.Since(start) < limit); pass++ {
		if err := f.onePass(w, rec, start); err != nil {
			return nil, err
		}
	}
	w.elapsed = time.Since(start)
	w.obs, w.responses = rec.obs, rec.responses
	return w, nil
}

// onePass boots a daemon, POSTs it the zoo once, in order — the cold tunes —
// and then coldReplays times more, which the daemon answers from its cache.
func (f *fixture) onePass(w *window, rec *recorder, start time.Time) (err error) {
	ds, err := bootAll(f.client, 1, daemonConfig)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeAll(ds); err == nil {
			err = cerr
		}
	}()
	rec.asked = make(map[int]bool) // this daemon has seen nothing
	for round := 0; round <= coldReplays; round++ {
		for i, n := range f.plan.nets[:zooSize] {
			t0 := time.Since(start)
			status, body, lat, err := postTune(f.client, ds[0].url, n.body)
			if err != nil {
				return fmt.Errorf("transport: %w", err)
			}
			rec.add(obs{net: i, start: t0, end: t0 + lat, status: status}, body)
		}
	}
	w.heapMB = liveHeapMB() - rec.footprintMB()
	w.after, err = readCounters(f.client, ds)
	return err
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

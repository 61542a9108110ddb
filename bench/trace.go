package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// A traced run keeps one root span per request — what the client saw — and,
// after the window has closed, replays a sample of the requests stage by
// stage: the harness itself calls the exported function of each layer the
// daemon's handler goes through, on mirrors of the daemon's state, and books
// the time of each call as a child span. Spans inside the daemon are a later
// change (ROADMAP item 1b); until then a stage's time is what the same call
// costs next to the daemon, not inside it.

// replayEvery is the sampling of the stage replay. First requests for a
// network are replayed too, all of them: they are the ones that change the
// daemon's state (a fresh tune fills the cache, a first analytic answer
// scans its spaces), so the mirrors must see each of them, in order.
const replayEvery = 10

// Span origins: where a child span's duration comes from.
const (
	originReplay = "replay" // the harness called the layer after the window
	originConfig = "config" // the daemon's configured wait, not a measurement
)

// span is one interval of the trace. Times are microseconds since the
// window opened. A replayed child is laid out from its root's start, one
// stage after the other, so a viewer shows the waterfall; only its length
// is measured.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0: a root span
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Class   string  `json:"class,omitempty"`  // root spans: hit, cold, analytic, first-touch
	Origin  string  `json:"origin,omitempty"` // child spans
	// MeasureBusyUS is the time a replayed search spent inside its
	// measurer, summed over the measurement calls (tuner.search spans).
	MeasureBusyUS float64 `json:"measure_busy_us,omitempty"`
}

func (s span) us() float64 { return s.EndUS - s.StartUS }

// stageSummary is one line of the trace's per-stage table.
type stageSummary struct {
	Stage    string  `json:"stage"`
	Spans    int     `json:"spans"`
	SelfUS   float64 `json:"median_self_us"`
	OfRootPC float64 `json:"median_share_of_root_pct"`
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Coverage is the median, over the replayed requests, of the share of
	// the root span its replayed stages account for.
	Coverage float64        `json:"stage_coverage"`
	Stages   []stageSummary `json:"stages"`
	Spans    []span         `json:"spans"`
}

// class names a response's tier of service; the caller turns the first
// analytic answer for a network into first-touch.
func class(body []byte) (string, error) {
	var resp repro.TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	if resp.Tier == "analytic" {
		return "analytic", nil
	}
	for _, v := range resp.Verdicts {
		if !v.Shared {
			return "cold", nil
		}
	}
	return "hit", nil
}

// mirrorCache copies the daemons' caches into one cache of the harness's
// own, through the state format the daemons persist.
func mirrorCache(ds []*daemon) (*autotune.Cache, error) {
	mirror := autotune.NewCache()
	for _, d := range ds {
		var state bytes.Buffer
		if err := d.cache.Save(&state); err != nil {
			return nil, err
		}
		if err := mirror.Load(&state); err != nil {
			return nil, err
		}
	}
	return mirror, nil
}

// replayer replays requests stage by stage.
type replayer struct {
	f      *fixture
	mirror *autotune.Cache       // the daemons' caches as the window found them
	dse    *autotune.AnalyticDSE // the analytic tier's spaces, as scanned so far
	asked  map[int]bool          // networks dse has answered
	ring   *cluster.Ring         // nil off the cluster
	client *http.Client

	// The wire stage: a loopback server that reads a request body and
	// writes back the response the daemon gave, and nothing else.
	echo     *http.Server
	echoURL  string
	echoBody atomic.Pointer[[]byte]
	echoed   chan struct{}
}

func newReplayer(f *fixture, mirror *autotune.Cache) (*replayer, error) {
	r := &replayer{f: f, mirror: mirror, dse: autotune.NewAnalyticDSE(memsim.V100),
		asked: make(map[int]bool), client: newClient(1), echoed: make(chan struct{})}
	if f.workload == shedAnalytic {
		// The daemon's analytic tier has answered the zoo in set-up.
		for i, n := range f.plan.nets[:zooSize] {
			r.asked[i] = true
			opts, err := sweepOptions(n)
			if err != nil {
				return nil, err
			}
			if _, err := r.dse.NetworkKinds(n.desc.NetworkLayers(), analyticKinds(opts)); err != nil {
				return nil, err
			}
		}
	}
	if len(f.daemons) > 1 {
		peers := make([]string, len(f.daemons))
		for i, d := range f.daemons {
			peers[i] = d.url
		}
		r.ring = cluster.NewRing(peers)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.echoURL = "http://" + ln.Addr().String()
	r.echo = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(*r.echoBody.Load())
	})}
	go func() {
		defer close(r.echoed)
		r.echo.Serve(ln)
	}()
	return r, nil
}

func (r *replayer) close() {
	r.client.CloseIdleConnections()
	r.echo.Close()
	<-r.echoed
}

// analyticKinds is the kind list the daemon's analytic tier is asked with:
// the request's kinds, then Winograd (tuned's analyticKinds).
func analyticKinds(opts autotune.NetworkOptions) []autotune.Kind {
	return append(append([]autotune.Kind(nil), opts.Kinds...), autotune.Winograd)
}

// stage is one replayed call and what it contains.
type stage struct {
	name   string
	origin string
	dur    time.Duration
	// placed stages start at offset within their parent (searches run in
	// parallel); the others follow one another.
	placed   bool
	offset   time.Duration
	busy     time.Duration
	children []stage
}

// replay calls, in the handler's order, what the daemon ran to answer o.
func (r *replayer) replay(o obs, w *window, cls string) ([]stage, error) {
	n := r.f.plan.nets[o.net]
	body := w.responses[o.resp].body
	var stages []stage
	timed := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		stages = append(stages, stage{name: name, origin: originReplay, dur: time.Since(start)})
		return err
	}

	r.echoBody.Store(&body)
	if err := timed("wire.roundtrip", func() error {
		resp, err := r.client.Post(r.echoURL, "application/json", bytes.NewReader(n.body))
		if err != nil {
			return err
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return err
	}); err != nil {
		return nil, err
	}
	var desc repro.NetworkDescription
	if err := timed("service.parse", func() (err error) {
		desc, err = repro.ParseNetworkDescription(n.body)
		return err
	}); err != nil {
		return nil, err
	}
	layers := desc.NetworkLayers()
	opts, err := sweepOptions(n)
	if err != nil {
		return nil, err
	}
	if r.ring != nil {
		key := ringKey(n)
		timed("cluster.owners", func() error { r.ring.Owners(key, 2); return nil })
	}

	var verdicts []autotune.LayerVerdict
	if cls == "analytic" || cls == "first-touch" {
		name := "analytic.serve"
		if cls == "first-touch" {
			name = "analytic.scan" // the first answer scans each new space; serving is the small rest
		}
		kinds := analyticKinds(opts)
		if err := timed(name, func() (err error) {
			verdicts, err = r.dse.NetworkKinds(layers, kinds)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		// The measured path waits out the admission window, then sweeps.
		stages = append(stages, stage{name: "tuned.batch_wait", origin: originConfig, dur: batchWindow})
		sweep, err := r.sweep(layers, opts, &verdicts)
		if err != nil {
			return nil, err
		}
		stages = append(stages, sweep)
	}
	err = timed("service.encode", func() error {
		_, err := encodeResponse(verdicts)
		return err
	})
	return stages, err
}

// sweep replays the network sweep on the mirror cache. Every search's
// measurer is wrapped, so each search's extent and the time it spent
// measuring are observed; the cache reads are replayed once more on their
// own, because the sweep does them inside.
func (r *replayer) sweep(layers []autotune.NetworkLayer, opts autotune.NetworkOptions, verdicts *[]autotune.LayerVerdict) (stage, error) {
	type extent struct {
		first, last time.Time
		busy        time.Duration
	}
	var mu sync.Mutex
	searches := make(map[spaceKey]*extent)
	opts.WrapMeasurer = func(kind autotune.Kind, s shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
		e := &extent{}
		mu.Lock()
		searches[spaceKey{kind, s}] = e
		mu.Unlock()
		return func(c conv.Config) (autotune.Measurement, bool, error) {
			start := time.Now()
			meas, ok := m(c)
			end := time.Now()
			// One search measures from one goroutine at a time (Workers 1).
			if e.first.IsZero() {
				e.first = start
			}
			e.last = end
			e.busy += end.Sub(start)
			return meas, ok, nil
		}
	}
	start := time.Now()
	v, err := autotune.TuneNetwork(memsim.V100, layers, r.mirror, opts)
	st := stage{name: "network.sweep", origin: originReplay, dur: time.Since(start)}
	if err != nil {
		return st, err
	}
	*verdicts = v

	getStart := time.Now()
	for _, l := range layers {
		for _, kind := range autotune.CandidateKinds(l.Shape, opts.Winograd, opts.Kinds) {
			r.mirror.Get(archName, kind, l.Shape)
		}
	}
	st.children = append(st.children, stage{name: "cache.get", origin: originReplay, dur: time.Since(getStart)})
	for _, e := range searches {
		if !e.first.IsZero() {
			st.children = append(st.children, stage{name: "tuner.search", origin: originReplay,
				placed: true, offset: e.first.Sub(start), dur: e.last.Sub(e.first), busy: e.busy})
		}
	}
	sort.Slice(st.children, func(i, j int) bool { return st.children[i].offset < st.children[j].offset })
	return st, nil
}

// tracer turns a traced window into spans.
type tracer struct {
	spans []span
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) addStages(parent, request int, base float64, stages []stage) {
	next := base
	for _, st := range stages {
		start := next
		if st.placed {
			start = base + float64(st.offset)/1e3
		} else {
			next = start + float64(st.dur)/1e3
		}
		id := t.add(span{Parent: parent, Request: request, Name: st.name, Origin: st.origin,
			StartUS: start, EndUS: start + float64(st.dur)/1e3, MeasureBusyUS: float64(st.busy) / 1e3})
		t.addStages(id, request, start, st.children)
	}
}

// traceWindow builds the trace of a window: a root span per request, child
// spans for the replayed ones. The mirror is the daemons' cache state when
// the window opened.
func (f *fixture) traceWindow(w *window, mirror *autotune.Cache) (*tracer, error) {
	r, err := newReplayer(f, mirror)
	if err != nil {
		return nil, err
	}
	defer r.close()
	classes := make([]string, len(w.responses))
	for i, resp := range w.responses {
		if classes[i], err = class(resp.body); err != nil {
			return nil, err
		}
	}
	t := &tracer{}
	for i, o := range w.obs {
		root := span{Request: i, Name: "POST /v1/tune", StartUS: float64(o.start) / 1e3, EndUS: float64(o.end) / 1e3}
		if o.resp < 0 {
			root.Class = fmt.Sprintf("status-%d", o.status)
			t.add(root)
			continue
		}
		root.Class = classes[o.resp]
		if root.Class == "analytic" && !r.asked[o.net] {
			root.Class, r.asked[o.net] = "first-touch", true
		}
		id := t.add(root)
		// cold-zoo's passes repeat one another: the first pass is replayed.
		sampled := i%replayEvery == 0 || o.first
		if f.workload == coldZoo {
			sampled = i < zooSize
		}
		if sampled {
			stages, err := r.replay(o, w, root.Class)
			if err != nil {
				return nil, fmt.Errorf("replay request %d (%s): %w", i, f.plan.nets[o.net].name, err)
			}
			t.addStages(id, i, root.StartUS, stages)
		}
	}
	return t, nil
}

// selfTimes returns, for every span with children or a parent, its self
// time in microseconds: its length minus what its children cover. Replayed
// children are not clipped to the span, so a root whose stages replay slower
// than the daemon ran them has a negative self time: the replay over-explains
// it, and that should show.
func (t *tracer) selfTimes() map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64)
	for _, s := range t.spans {
		cs := kids[s.ID]
		if s.Parent == 0 && len(cs) == 0 {
			continue // a request that was not replayed
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartUS < cs[j].StartUS })
		covered, until := 0.0, s.StartUS
		for _, c := range cs {
			from, to := max(c.StartUS, until), c.EndUS
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[s.ID] = s.us() - covered
	}
	return self
}

// traceSummary is what the replayed requests reduce to.
type traceSummary struct {
	stages []stageSummary
	// coverage is the median share of the root span the replayed stages
	// account for; overheadMS the median of what they leave, the root's
	// self time; replayed how many requests were replayed.
	coverage, overheadMS float64
	replayed             int
}

func (t *tracer) summarize() traceSummary {
	self := t.selfTimes()
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = t.spans[s.Parent-1]
		}
		return s
	}
	// A stage's self time within one request is summed over its spans there.
	perStage := make(map[string]map[int]float64)
	for _, s := range t.spans {
		v, ok := self[s.ID]
		if !ok {
			continue
		}
		name := s.Name
		if s.Parent == 0 {
			name = "tuned.overhead" // what the replay does not account for
		}
		if perStage[name] == nil {
			perStage[name] = make(map[int]float64)
		}
		perStage[name][rootOf(s).ID] += v
	}
	var sum traceSummary
	var cover, overhead []float64
	for id, v := range perStage["tuned.overhead"] {
		cover = append(cover, 1-v/t.spans[id-1].us())
		overhead = append(overhead, v/1e3)
	}
	sum.coverage, sum.overheadMS, sum.replayed = median(cover), median(overhead), len(cover)
	for name, byRoot := range perStage {
		var selfs, shares []float64
		for id, v := range byRoot {
			selfs = append(selfs, v)
			shares = append(shares, 100*v/t.spans[id-1].us())
		}
		sum.stages = append(sum.stages, stageSummary{name, len(selfs), median(selfs), median(shares)})
	}
	sort.Slice(sum.stages, func(i, j int) bool { return sum.stages[i].SelfUS > sum.stages[j].SelfUS })
	return sum
}

// write saves the trace to bench/out/trace-<workload>.json.
func (t *tracer) write(workload string, seed int64, sum traceSummary) error {
	data, err := json.Marshal(traceFile{workload, seed, sum.coverage, sum.stages, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}

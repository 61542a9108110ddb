package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// oracle checks every 200 against facts the daemon did not supply: the
// request that was sent, the dry evaluator behind repro.MeasureKind, and the
// I/O lower bound. A response that fails a check is a failed operation.
type oracle struct {
	spaces map[spaceKey]*autotune.Space
}

type spaceKey struct {
	kind  autotune.Kind
	shape shapes.ConvShape
}

func newOracle() *oracle {
	return &oracle{spaces: make(map[spaceKey]*autotune.Space)}
}

// space returns the (cached) search space of one kind on one layer shape.
func (o *oracle) space(kind autotune.Kind, s shapes.ConvShape) (*autotune.Space, error) {
	k := spaceKey{kind, s}
	if sp := o.spaces[k]; sp != nil {
		return sp, nil
	}
	sp, err := newSpace(kind, s)
	if err != nil {
		return nil, err
	}
	o.spaces[k] = sp
	return sp, nil
}

// newSpace builds the pruned search space the daemon tunes a kind in on
// V100 (Winograd spaces start from tile edge 2, as the sweep's do).
func newSpace(kind autotune.Kind, s shapes.ConvShape) (*autotune.Space, error) {
	e := 0
	if kind == autotune.Winograd {
		e = 2
	}
	return autotune.NewSpace(s, memsim.V100, kind, e, true)
}

// check verifies one response body against the network it answers:
//
//   - one verdict per layer, in order, echoing name and repeat;
//   - a measured or refined verdict's configuration, re-measured with
//     repro.MeasureKind, reproduces the reported seconds exactly;
//   - no verdict undercuts Space.BoundSeconds of its own configuration
//     (admissibility);
//   - network_seconds is the repeat-weighted sum of the verdicts;
//   - with analytic set, the response and every verdict say tier
//     "analytic"; without it none is partial.
func (o *oracle) check(n network, body []byte, analytic bool) error {
	var resp repro.TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("response is not a TuneResponse: %w", err)
	}
	if resp.Arch != n.desc.Arch {
		return fmt.Errorf("arch %q, sent %q", resp.Arch, n.desc.Arch)
	}
	if len(resp.Verdicts) != len(n.desc.Layers) {
		return fmt.Errorf("%d verdicts for %d layers", len(resp.Verdicts), len(n.desc.Layers))
	}
	if analytic && resp.Tier != "analytic" {
		return fmt.Errorf("response tier %q, want analytic", resp.Tier)
	}
	if resp.Partial {
		return fmt.Errorf("partial response without a deadline configured")
	}
	layers := n.desc.NetworkLayers()
	var sum float64
	for i, v := range resp.Verdicts {
		l := layers[i]
		if v.Layer != l.Name || v.Repeat != l.Repeat {
			return fmt.Errorf("verdict %d is %q x%d, layer is %q x%d", i, v.Layer, v.Repeat, l.Name, l.Repeat)
		}
		if analytic != (v.Tier == "analytic") {
			return fmt.Errorf("layer %s: tier %q", v.Layer, v.Tier)
		}
		if !(v.Seconds > 0) || math.IsInf(v.Seconds, 0) {
			return fmt.Errorf("layer %s: seconds %v", v.Layer, v.Seconds)
		}
		kind, err := autotune.ParseKind(v.Kind)
		if err != nil {
			return fmt.Errorf("layer %s: %w", v.Layer, err)
		}
		cfg := v.Config.Config()
		if !analytic {
			r, err := repro.MeasureKind(memsim.V100, l.Shape, kind, cfg)
			if err != nil {
				return fmt.Errorf("layer %s: verdict does not measure: %w", v.Layer, err)
			}
			if r.Seconds != v.Seconds {
				return fmt.Errorf("layer %s: reported %v s, re-measured %v s", v.Layer, v.Seconds, r.Seconds)
			}
		}
		sp, err := o.space(kind, l.Shape)
		if err != nil {
			return fmt.Errorf("layer %s: %w", v.Layer, err)
		}
		if b := sp.BoundSeconds(cfg); b > v.Seconds {
			return fmt.Errorf("layer %s: %v s undercuts its I/O bound %v s", v.Layer, v.Seconds, b)
		}
		sum += float64(v.Repeat) * v.Seconds
	}
	if math.Abs(sum-resp.NetworkSeconds) > 1e-9*sum {
		return fmt.Errorf("network_seconds %v, verdicts sum to %v", resp.NetworkSeconds, sum)
	}
	return nil
}

// quality is what a window's zoo answers are worth: the sum over the zoo of
// the mean network_seconds its requests were served (simulated ms; replicas
// that hold different verdicts for a network each weigh in by the requests
// they answered), and the geomean over the distinct (kind, shape, config)
// verdicts of seconds over the best floor the analytic model finds anywhere
// in that kind's space — how far the served verdicts sit from the I/O bound.
// served[i] is how many requests got responses[i].
func (o *oracle) quality(nets []network, responses []response, served []int) (networkMS, boundGap float64, err error) {
	type verdict struct {
		sp      *autotune.Space
		seconds float64
	}
	type verdictKey struct {
		spaceKey
		cfg repro.ConfigDescription
	}
	seen := make(map[verdictKey]bool)
	var distinct []verdict
	var seconds, requests [zooSize]float64
	for i, r := range responses {
		if r.net >= zooSize {
			continue
		}
		var resp repro.TuneResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return 0, 0, err
		}
		seconds[r.net] += resp.NetworkSeconds * float64(served[i])
		requests[r.net] += float64(served[i])
		layers := nets[r.net].desc.NetworkLayers()
		for j, v := range resp.Verdicts {
			kind, err := autotune.ParseKind(v.Kind)
			if err != nil {
				return 0, 0, err
			}
			k := verdictKey{spaceKey{kind, layers[j].Shape}, v.Config}
			if seen[k] {
				continue
			}
			seen[k] = true
			sp, err := o.space(kind, layers[j].Shape)
			if err != nil {
				return 0, 0, err
			}
			distinct = append(distinct, verdict{sp, v.Seconds})
		}
	}
	for z := range seconds {
		if requests[z] == 0 {
			return 0, 0, fmt.Errorf("the window never got an answer for %s", nets[z].name)
		}
		networkMS += seconds[z] / requests[z] * 1e3
	}

	// A space's floor costs a scan of the whole space, a hundred of them
	// seconds; nothing else runs by now, so they take every core.
	gaps := make([]float64, len(distinct))
	errs := make([]error, len(distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(distinct); i = int(next.Add(1)) - 1 {
				best, err := distinct[i].sp.Analytic(1)
				gaps[i], errs[i] = distinct[i].seconds/best.Floor, err
			}
		}()
	}
	wg.Wait()
	return networkMS, geomean(gaps), errors.Join(errs...)
}

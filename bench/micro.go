package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// This file measures the layers from outside, one exported call at a time,
// with the micro-timer of stats.go. Nothing here depends on the workload;
// every traced run repeats it, because a traced run reports every per-layer
// metric.

// outDir is where a run leaves files: traces and the micro-timer's scratch
// state file. It is ignored by git.
const outDir = "bench/out"

// sweepOptions is what the daemon hands TuneNetwork for a request: its own
// defaults (daemonConfig) under the request's overrides, as
// tuned.Server.requestOptions and networkOptions resolve them.
func sweepOptions(n network) (autotune.NetworkOptions, error) {
	cfg := daemonConfig()
	opts := autotune.NetworkOptions{Tune: cfg.Tune, Winograd: cfg.Winograd, Warm: cfg.Warm}
	if o := n.desc.Options; o != nil {
		if o.Budget > 0 {
			opts.Tune.Budget = o.Budget
		}
		for _, name := range o.Kinds {
			k, err := autotune.ParseKind(name)
			if err != nil {
				return opts, err
			}
			opts.Kinds = append(opts.Kinds, k)
		}
	}
	return opts, nil
}

// encodeResponse is what the daemon does with a sweep's verdicts.
func encodeResponse(verdicts []autotune.LayerVerdict) ([]byte, error) {
	return json.Marshal(repro.TuneResponse{Arch: archName,
		Verdicts:       repro.DescribeVerdicts(verdicts),
		NetworkSeconds: autotune.NetworkSeconds(verdicts)})
}

// engineLayer is the layer BenchmarkTuneEngine and Table 2 share.
var engineLayer = shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 256, Hker: 5, Wker: 5, Strid: 1, Pad: 2}

// microMetrics fills in every per-layer metric that is a timing or count of
// one exported call.
func microMetrics(mt microTimer, nets []network, m map[string]float64) error {
	arch := memsim.V100
	zooNets := nets[:zooSize]

	// Warm a cache with the zoo the way a daemon would, one sweep per
	// network in order; the verdicts feed the encode timing and the regret.
	warmed := autotune.NewCache()
	verdicts := make([][]autotune.LayerVerdict, zooSize)
	for i, n := range zooNets {
		opts, err := sweepOptions(n)
		if err != nil {
			return err
		}
		if verdicts[i], err = autotune.TuneNetwork(arch, n.desc.NetworkLayers(), warmed, opts); err != nil {
			return fmt.Errorf("warm %s: %w", n.name, err)
		}
	}

	// service: the wire format, per zoo body.
	parse, err := mt.try(func() error {
		for _, n := range zooNets {
			if _, err := repro.ParseNetworkDescription(n.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	encode, err := mt.try(func() error {
		for _, v := range verdicts {
			if _, err := encodeResponse(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["service.parse_us"] = parse.us() / zooSize
	m["service.encode_us"] = encode.us() / zooSize
	m["service.parse_allocs"] = allocsPerOp(func() { repro.ParseNetworkDescription(zooNets[2].body) })
	m["service.encode_allocs"] = allocsPerOp(func() { encodeResponse(verdicts[2]) })

	// cluster: ownership lookup on a ring the size of cluster-mixed's.
	ring := cluster.NewRing([]string{"http://127.0.0.1:19411", "http://127.0.0.1:19412", "http://127.0.0.1:19413"})
	key := ringKey(zooNets[2])
	m["cluster.owners_ns"] = mt.op(func() { ring.Owners(key, 2) }).ns

	// tuner: one search, and the standalone replays that split it.
	search, err := tunerMetrics(mt, arch, m)
	if err != nil {
		return err
	}

	// cache: reads, writes and persistence of the zoo-warmed cache.
	resnet := zooNets[2].desc.NetworkLayers()
	m["cache.get_ns"] = mt.op(func() { warmed.Get(archName, autotune.Direct, resnet[1].Shape) }).ns
	scratch := autotune.NewCache()
	m["cache.put_us"] = mt.op(func() { scratch.PutTrace(archName, autotune.Direct, engineLayer, search) }).us()
	var state bytes.Buffer
	save, err := mt.try(func() error {
		state.Reset()
		return warmed.Save(&state)
	})
	if err != nil {
		return err
	}
	m["cache.save_ms"] = save.ms()
	m["cache.state_bytes"] = float64(state.Len())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	statePath := filepath.Join(outDir, "micro-cache-state.json")
	if err := os.WriteFile(statePath, state.Bytes(), 0o644); err != nil {
		return err
	}
	defer os.Remove(statePath)
	recov, err := mt.try(func() error {
		_, _, err := autotune.NewCache().RecoverFile(statePath)
		return err
	})
	if err != nil {
		return err
	}
	m["cache.recover_ms"] = recov.ms()

	// network: one sweep without HTTP, cold and cached.
	opts, err := sweepOptions(zooNets[2])
	if err != nil {
		return err
	}
	var filled *autotune.Cache
	cold, err := mt.try(func() error {
		filled = autotune.NewCache()
		_, err := autotune.TuneNetwork(arch, resnet, filled, opts)
		return err
	})
	if err != nil {
		return err
	}
	cached, err := mt.try(func() error {
		_, err := autotune.TuneNetwork(arch, resnet, filled, opts)
		return err
	})
	if err != nil {
		return err
	}
	m["network.sweep_cold_ms"] = cold.ms()
	m["network.sweep_cached_us"] = cached.us()

	return analyticMetrics(mt, arch, zooNets, verdicts, m)
}

// ringKey is a routing key of the daemon's format (tuned's requestKey):
// architecture, budget, seed, winograd, kinds, then every layer shape.
func ringKey(n network) string {
	key := archName + "|400|0|true|"
	for _, l := range n.desc.NetworkLayers() {
		key += "|" + l.Shape.String()
	}
	return key
}

// tunerMetrics times one engine search the way BenchmarkTuneEngine does —
// measurements are memo lookups, so the engine's own work is what is timed —
// and replays gbt, measure and bound on that search's history to estimate
// what is left for the tuner itself.
func tunerMetrics(mt microTimer, arch memsim.Arch, m map[string]float64) (*autotune.Trace, error) {
	memo := autotune.NewMemoMeasure(arch, engineLayer, autotune.Direct)
	opts := autotune.DefaultOptions()
	opts.Budget, opts.Patience, opts.Seed = 192, 0, 1
	var tr *autotune.Trace
	var sp *autotune.Space
	search, err := mt.try(func() (err error) {
		if sp, err = newSpace(autotune.Direct, engineLayer); err == nil {
			tr, err = autotune.Tune(sp, memo.Measure, opts)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	n := float64(tr.Measurements)
	m["tuner.search_ms"] = search.ms()
	m["tuner.us_per_measurement"] = search.us() / n
	m["tuner.measurements"] = n
	m["tuner.pruned"] = float64(tr.Pruned)
	m["tuner.converged_at"] = float64(tr.ConvergedAt)

	// The cost model's training set as the search built it: features of
	// each measured configuration against its log cost.
	var x [][]float64
	var y []float64
	for _, h := range tr.History {
		x = append(x, sp.Features(h.Config))
		cost := 20.0
		if h.OK {
			cost = math.Log(h.M.Seconds)
		}
		y = append(y, cost)
	}
	gcfg := autotune.DefaultGBTConfig()
	const step = 8 // the engine's batch: rows added, and rounds boosted, per refit
	train := mt.op(func() { autotune.TrainGBT(gcfg, x, y) })
	var model *autotune.GBTModel
	update := mt.with(
		func() { model = autotune.TrainGBT(gcfg, x[:len(x)-step], y[:len(y)-step]) },
		func() { model.Update(x, y, step) })
	batch := make([][]float64, 256)
	for i := range batch {
		batch[i] = x[i%len(x)]
	}
	out := make([]float64, len(batch))
	predict := mt.op(func() { model.PredictBatch(batch, out) })
	m["gbt.train_ms"] = train.ms()
	m["gbt.update_ms"] = update.ms()
	m["gbt.predict_batch_us"] = predict.us()

	cfg := tr.History[0].Config
	dry := mt.op(func() { memo.Measure(cfg) })
	var fresh *autotune.MemoMeasure
	miss := mt.with(
		func() { fresh = autotune.NewMemoMeasure(arch, engineLayer, autotune.Direct) },
		func() { fresh.Measure(cfg) })
	i := 0
	bound := mt.op(func() {
		sp.BoundSeconds(tr.History[i%len(tr.History)].Config)
		i++
	})
	m["measure.dry_ns"] = dry.ns
	m["measure.dry_miss_ns"] = miss.ns
	m["bound.seconds_ns"] = bound.ns

	// What the search spends outside the tuner: a refit and a batched
	// prediction per batch of step measurements, a memoised measurement per
	// measurement, a bound per candidate kept or pruned. An estimate — the
	// engine's own schedule is not visible from outside.
	batches := n / step
	others := batches*(update.ms()+predict.ms()) + n*dry.ms() + (n+float64(tr.Pruned))*bound.ms()
	m["tuner.self_ms"] = search.ms() - others
	return tr, nil
}

// analyticMetrics times the measurement-free tier: the one-off scan of each
// zoo search space, a warm serve, and what its picks cost against the tuned
// verdicts.
func analyticMetrics(mt microTimer, arch memsim.Arch, zooNets []network, tuned [][]autotune.LayerVerdict, m map[string]float64) error {
	seen := make(map[spaceKey]bool)
	var scanMS, scanAllocs, regret []float64
	dse := autotune.NewAnalyticDSE(arch)
	for i, n := range zooNets {
		opts, err := sweepOptions(n)
		if err != nil {
			return err
		}
		layers := n.desc.NetworkLayers()
		for _, l := range layers {
			for _, kind := range autotune.CandidateKinds(l.Shape, opts.Winograd, opts.Kinds) {
				if k := (spaceKey{kind, l.Shape}); seen[k] {
					continue
				} else {
					seen[k] = true
				}
				sp, err := newSpace(kind, l.Shape)
				if err != nil {
					return err
				}
				// The scan runs once per Space, so each space gives one
				// sample: no warm-up, no repeats.
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				_, err = sp.AnalyticTop(1, 1)
				took := time.Since(start)
				runtime.ReadMemStats(&after)
				if err != nil {
					continue // a kind may rank nothing on a layer; the tier skips it too
				}
				scanMS = append(scanMS, float64(took)/float64(time.Millisecond))
				scanAllocs = append(scanAllocs, float64(after.Mallocs-before.Mallocs))
			}
		}
		// The tier's pick for each layer, re-measured, against the tuned one.
		picks, err := dse.NetworkKinds(layers, analyticKinds(opts))
		if err != nil {
			return err
		}
		for j, p := range picks {
			r, err := repro.MeasureKind(arch, p.Layer.Shape, p.Kind, p.Config)
			if err != nil {
				return fmt.Errorf("analytic pick for %s does not measure: %w", p.Layer.Name, err)
			}
			regret = append(regret, r.Seconds/tuned[i][j].M.Seconds)
		}
	}
	m["analytic.scan_ms"] = median(scanMS)
	m["analytic.scan_allocs"] = median(scanAllocs)
	m["analytic.regret"] = geomean(regret)

	resnet := zooNets[2].desc.NetworkLayers()
	serve, err := mt.try(func() error {
		_, err := dse.NetworkKinds(resnet, []autotune.Kind{autotune.Winograd})
		return err
	})
	m["analytic.serve_us"] = serve.us()
	return err
}

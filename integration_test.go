package repro

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/models"
)

// TestFullPipeline walks the complete user journey end to end: query the
// theory, tune a layer (with a persistent cache), emit the winning schedule,
// run the tuned configuration on real data, verify the numerics, and check
// the measured traffic against the lower bound and the library baseline.
func TestFullPipeline(t *testing.T) {
	arch, err := ArchByName("1080Ti")
	if err != nil {
		t.Fatal(err)
	}
	layer, err := NewShape(1, 64, 28, 96, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Theory.
	bound := LowerBoundDirect(layer, 8192)
	model := DataflowIODirect(layer, 8192, 1)
	if bound <= 0 || model < bound {
		t.Fatalf("theory inconsistent: bound=%v model=%v", bound, model)
	}

	// 2. Tune with a cache.
	cache := autotune.NewCache()
	sp, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := autotune.DefaultOptions()
	opts.Budget = 48
	tr, err := autotune.TuneResumed(cache, sp, autotune.KindMeasurer(arch, layer, autotune.Direct), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, m := tr.Best, tr.BestM
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded := autotune.NewCache()
	if err := reloaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	tr2, err := autotune.TuneResumed(reloaded, sp, func(Config) (autotune.Measurement, bool) {
		t.Fatal("cache miss after reload")
		return autotune.Measurement{}, false
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2, m2 := tr2.Best, tr2.BestM; cfg2 != cfg || m2 != m {
		t.Fatalf("cache round trip changed the verdict: %v vs %v", cfg2, cfg)
	}

	// 3. Emit the schedule.
	sched := autotune.EmitSchedule(autotune.Direct, layer, cfg)
	if !strings.Contains(sched, "__shared__") {
		t.Errorf("schedule emission broken:\n%s", sched)
	}

	// 4. Run wet with the tuned config and verify.
	in, ker := RandomOperands(layer, 123)
	res, err := RunDirect(arch, layer, cfg, in, ker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(layer, res, in, ker, 2e-3); err != nil {
		t.Fatal(err)
	}

	// 5. The tuned run respects the bound at its own shared-memory size and
	// beats the library baseline.
	if got := float64(res.Counts.GlobalIO()); got < LowerBoundDirect(layer, cfg.SharedPerBlock) {
		t.Errorf("measured I/O %v below bound", got)
	}
	lib, err := MeasureLibraryDirect(arch, layer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds > lib.Seconds {
		t.Errorf("tuned run (%v) slower than library (%v)", res.Seconds, lib.Seconds)
	}

	// 6. The tile found satisfies (or closely approaches) the optimality
	// condition — the paper's central design claim.
	gap := bounds.Tile{X: cfg.TileX, Y: cfg.TileY, Z: cfg.TileZ}.OptimalityGap(layer.R())
	if gap > 0.8 {
		t.Errorf("tuned tile %v far off the optimality condition (gap %v)", cfg, gap)
	}

	// 7. The roofline diagnosis is coherent.
	b := arch.Explain(res.Counts, res.Launch)
	if b.Total <= 0 || b.Bound == "" {
		t.Errorf("diagnosis degenerate: %+v", b)
	}
}

// TestNetworkDescriptionPipeline drives the service wire format through the
// real tuner: a model inventory serialized to the JSON a client would POST,
// parsed back, and tuned — with verdicts bit-identical to handing the tuner
// the in-process layer tables directly. The wire format adds description,
// never behavior.
func TestNetworkDescriptionPipeline(t *testing.T) {
	arch, err := ArchByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	layers := models.SqueezeNet().NetworkLayers()[:4]
	opts := NetworkTuneOptions{Budget: 12, Seed: 3, Winograd: true}

	body, err := json.Marshal(DescribeNetwork(arch.Name, layers))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := ParseNetworkDescription(body)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := TuneNetwork(arch, layers, NewTuningCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	viaWire, err := TuneNetwork(arch, desc.NetworkLayers(), NewTuningCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaWire) != len(direct) {
		t.Fatalf("verdict count differs: %d != %d", len(viaWire), len(direct))
	}
	for i := range direct {
		if viaWire[i].Config != direct[i].Config || viaWire[i].M != direct[i].M ||
			viaWire[i].Kind != direct[i].Kind {
			t.Errorf("layer %d: wire verdict %+v != direct %+v", i, viaWire[i], direct[i])
		}
	}
}

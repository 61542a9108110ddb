package autotune

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conv"
	"repro/internal/shapes"
)

func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	s := layer()
	cfg := conv.Config{TileX: 9, TileY: 3, TileZ: 8, ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2,
		SharedPerBlock: 4096, WinogradE: 0}
	m := Measurement{Seconds: 1.5e-4}
	c.Put(arch.Name, Direct, s, cfg, m)
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
	got, gm, ok := c.Get(arch.Name, Direct, s)
	if !ok || got != cfg || gm != m {
		t.Fatalf("Get mismatch: %v %v %v", got, gm, ok)
	}
	// Different kind or shape must miss.
	if _, _, ok := c.Get(arch.Name, Winograd, s); ok {
		t.Error("kind collision")
	}
	other := s
	other.Cout *= 2
	if _, _, ok := c.Get(arch.Name, Direct, other); ok {
		t.Error("shape collision")
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got2, gm2, ok := restored.Get(arch.Name, Direct, s)
	if !ok || got2 != cfg || gm2 != m {
		t.Fatalf("restored mismatch: %v %v %v", got2, gm2, ok)
	}
}

func TestCacheSaveDeterministic(t *testing.T) {
	c := NewCache()
	s := layer()
	c.Put("A", Direct, s, conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 256}, Measurement{Seconds: 1})
	c.Put("B", Direct, s, conv.Config{TileX: 3, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 256}, Measurement{Seconds: 2})
	var b1, b2 bytes.Buffer
	if err := c.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("Save not deterministic")
	}
}

func TestCacheLoadRejectsGarbage(t *testing.T) {
	c := NewCache()
	if err := c.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := c.Load(strings.NewReader(`{"version":3,"entries":[{"arch":"x","kind":"direct","shape":{"Batch":0}}]}`)); err == nil {
		t.Error("invalid shape accepted")
	}
	// A successful row with non-positive seconds would poison resumed
	// incumbents (zero best prunes everything) and cost-model log-costs.
	bad := `{"version":3,"entries":[` + strings.Replace(validEntryJSON("direct"),
		`"seconds":1.5e-4`, `"seconds":1.5e-4,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":256,"Layout":0,"WinogradE":0},"seconds":0,"ok":true}]`, 1) + `]}`
	if err := c.Load(strings.NewReader(bad)); err == nil {
		t.Error("zero-seconds successful row accepted")
	}
	if c.Len() != 0 {
		t.Errorf("rejected loads still stored %d entries", c.Len())
	}
}

// validEntryJSON is one well-formed persisted entry with a pluggable kind.
func validEntryJSON(kind string) string {
	return `{"arch":"V100","kind":"` + kind + `",` +
		`"shape":{"Batch":1,"Cin":96,"Hin":27,"Win":27,"Cout":64,"Hker":3,"Wker":3,"Stride":1,"Pad":1},` +
		`"config":{"TileX":9,"TileY":3,"TileZ":8,"ThreadsX":3,"ThreadsY":3,"ThreadsZ":2,` +
		`"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":1.5e-4}`
}

// An unknown algorithm kind must be rejected: a corrupt or future-format
// cache file silently mapping to Direct would poison every verdict served
// from it.
func TestCacheLoadRejectsUnknownKind(t *testing.T) {
	for name, payload := range map[string]string{
		"current envelope": `{"version":3,"entries":[` + validEntryJSON("karatsuba") + `]}`,
		// A valid entry ahead of the bad one must not be committed either:
		// a rejected file leaves the cache untouched.
		"partial": `{"version":3,"entries":[` + validEntryJSON("direct") + `,` + validEntryJSON("karatsuba") + `]}`,
	} {
		c := NewCache()
		err := c.Load(strings.NewReader(payload))
		if err == nil {
			t.Errorf("%s: unknown kind accepted", name)
		} else if !strings.Contains(err.Error(), "unknown cache kind") {
			t.Errorf("%s: wrong error: %v", name, err)
		}
		if c.Len() != 0 {
			t.Errorf("%s: rejected load still stored %d entries", name, c.Len())
		}
	}
}

// Every registered algorithm kind — and a grouped shape — must survive a
// Save/Load round trip through the current envelope: the per-layer kernel choice
// persists its verdicts under "fft"/"igemm" names and depthwise shapes.
func TestCacheRoundTripAllKinds(t *testing.T) {
	c := NewCache()
	s := layer()
	grouped := s
	grouped.Cin, grouped.Cout, grouped.Groups = 96, 96, 4
	cfg := conv.Config{TileX: 9, TileY: 3, TileZ: 8, ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2,
		SharedPerBlock: 4096}
	for i, kind := range Kinds {
		cfg.WinogradE = kind.spec().edges[0]
		c.Put(arch.Name, kind, s, cfg, Measurement{Seconds: float64(i+1) * 1e-4})
		c.Put(arch.Name, kind, grouped, cfg, Measurement{Seconds: float64(i+1) * 2e-4})
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if restored.Len() != c.Len() {
		t.Fatalf("Len=%d after reload, want %d", restored.Len(), c.Len())
	}
	for i, kind := range Kinds {
		if _, m, ok := restored.Get(arch.Name, kind, s); !ok || m.Seconds != float64(i+1)*1e-4 {
			t.Errorf("%v dense entry lost: %v %v", kind, m, ok)
		}
		if _, m, ok := restored.Get(arch.Name, kind, grouped); !ok || m.Seconds != float64(i+1)*2e-4 {
			t.Errorf("%v grouped entry lost: %v %v", kind, m, ok)
		}
		// The grouped and dense entries must be distinct keys.
		if _, mg, _ := restored.Get(arch.Name, kind, grouped); mg.Seconds == float64(i+1)*1e-4 {
			t.Errorf("%v grouped entry collides with dense", kind)
		}
	}
}

// Only the current envelope loads: the retired version-1 format (a bare
// JSON array, last written before the state-carrying format), the retired
// version 2 (TestRetiredV2Envelope) and unknown future versions are all
// refused, leaving the cache untouched.
func TestCacheLoadFormatVersions(t *testing.T) {
	c := NewCache()
	if err := c.Load(strings.NewReader(`[` + validEntryJSON("direct") + `]`)); err == nil {
		t.Error("retired v1 bare-array file accepted")
	}
	if c.Len() != 0 {
		t.Errorf("rejected v1 file still stored %d entries", c.Len())
	}
	if err := NewCache().Load(strings.NewReader(`{"version":4,"entries":[]}`)); err == nil {
		t.Error("future format version accepted")
	}
}

// The strconv key builder and its string wrapper must agree with the
// reference fmt construction of the same key. (Keys are in-memory only —
// files persist whole entries — so the format needs internal consistency,
// not cross-version stability.)
func TestCacheKeyFormat(t *testing.T) {
	s := layer()
	grouped := s
	grouped.Cin, grouped.Cout, grouped.Groups = 96, 96, 4
	for _, sh := range []shapes.ConvShape{s, grouped} {
		for _, kind := range Kinds {
			want := fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d", arch.Name, kind,
				sh.Batch, sh.Cin, sh.Hin, sh.Win, sh.Cout,
				sh.Hker, sh.Wker, sh.Strid, sh.Pad, sh.G())
			if got := cacheKey(arch.Name, kind, sh); got != want {
				t.Errorf("cacheKey = %q, want %q", got, want)
			}
			var kb [cacheKeyBuf]byte
			if got := string(appendCacheKey(kb[:0], arch.Name, kind, sh)); got != want {
				t.Errorf("appendCacheKey = %q, want %q", got, want)
			}
		}
	}
}

// BenchmarkCacheKey measures the strconv-based key builder on the shared
// cache's hot path (must be 0 allocs/op into a reused buffer).
func BenchmarkCacheKey(b *testing.B) {
	s := layer()
	var kb [cacheKeyBuf]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = appendCacheKey(kb[:0], "V100", Direct, s)
	}
}

// BenchmarkCacheGet is the full hot lookup (key build + shard + map hit);
// it must not allocate.
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache()
	s := layer()
	c.Put(arch.Name, Direct, s,
		conv.Config{TileX: 9, TileY: 3, TileZ: 8, ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2, SharedPerBlock: 4096},
		Measurement{Seconds: 1e-4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(arch.Name, Direct, s); !ok {
			b.Fatal("miss")
		}
	}
}

func TestCacheFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	c := NewCache()
	s := layer()
	c.Put(arch.Name, Winograd, s,
		conv.Config{TileX: 4, TileY: 4, TileZ: 4, ThreadsX: 2, ThreadsY: 2, ThreadsZ: 2,
			SharedPerBlock: 8192, WinogradE: 2},
		Measurement{Seconds: 3e-4})
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r := NewCache()
	if err := r.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("restored Len=%d", r.Len())
	}
	cfg, _, ok := r.Get(arch.Name, Winograd, s)
	if !ok || cfg.WinogradE != 2 {
		t.Fatalf("restored entry wrong: %v %v", cfg, ok)
	}
}

func TestTuneCached(t *testing.T) {
	c := NewCache()
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	calls := 0
	counting := func(cfg conv.Config) (Measurement, bool) {
		calls++
		return measure(cfg)
	}
	cfg1, m1, err := TuneCached(c, sp, counting, smallOpts(24, 5))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no measurements on cold cache")
	}
	callsAfterTune := calls
	cfg2, m2, err := TuneCached(c, sp, counting, smallOpts(24, 5))
	if err != nil {
		t.Fatal(err)
	}
	if calls != callsAfterTune {
		t.Error("cache hit still measured")
	}
	if cfg1 != cfg2 || m1 != m2 {
		t.Error("cache returned a different verdict")
	}
}

func TestEmitSchedule(t *testing.T) {
	s := layer()
	cfg := conv.Config{TileX: 9, TileY: 9, TileZ: 8, ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2,
		SharedPerBlock: 4096}
	out := EmitSchedule(Direct, s, cfg)
	for _, want := range []string{"__shared__", "channel-sliding", "store out", "9x9x8"} {
		if !strings.Contains(out, want) {
			t.Errorf("direct schedule missing %q:\n%s", want, out)
		}
	}
	wcfg := conv.Config{TileX: 8, TileY: 8, TileZ: 8, ThreadsX: 4, ThreadsY: 4, ThreadsZ: 4,
		SharedPerBlock: 12288, WinogradE: 2}
	wout := EmitSchedule(Winograd, s, wcfg)
	for _, want := range []string{"Pi[", "B^T", "G . g . G^T", "A^T", "F(2x2,3x3)"} {
		if !strings.Contains(wout, want) {
			t.Errorf("winograd schedule missing %q:\n%s", want, wout)
		}
	}
}

func TestFeatureImportance(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	// Train a model from real measurements.
	var feats [][]float64
	var costs []float64
	rngConfigs := 0
	sp.enumerate(func(c conv.Config) bool {
		if rngConfigs%7 == 0 {
			if m, ok := measure(c); ok {
				feats = append(feats, sp.Features(c))
				costs = append(costs, m.Seconds)
			}
		}
		rngConfigs++
		return len(feats) < 150
	})
	if len(feats) < 20 {
		t.Skip("too few measurable configs")
	}
	model := TrainGBT(DefaultGBTConfig(), feats, costs)
	imp := model.FeatureImportance()
	if len(imp) == 0 {
		t.Fatal("no splits recorded")
	}
	total := 0
	for _, i := range imp {
		if i.Splits <= 0 {
			t.Errorf("non-positive split count: %+v", i)
		}
		if i.Feature == "unknown" {
			t.Errorf("unnamed feature in importance: %+v", i)
		}
		total += i.Splits
	}
	// Sorted descending.
	for i := 1; i < len(imp); i++ {
		if imp[i].Splits > imp[i-1].Splits {
			t.Error("importance not sorted")
		}
	}
	if len(FeatureNames) != NumFeatures {
		t.Errorf("FeatureNames has %d entries, NumFeatures=%d", len(FeatureNames), NumFeatures)
	}
}

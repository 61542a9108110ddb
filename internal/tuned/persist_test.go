package tuned

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// The cache holds no curves; the .handoff sidecar must still write each
// parked entry with the curve its search built, byte for byte what it wrote
// when entries carried their curves, and restore the same queue.
func TestHandoffSidecarWritesEngineCurves(t *testing.T) {
	cache := autotune.NewCache()
	var parked, withCurves []autotune.CacheEntry
	for i, kind := range []autotune.Kind{autotune.Direct, autotune.Winograd} {
		s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 8, Win: 8, Cout: 8 * (i + 1), Hker: 3, Wker: 3, Strid: 1, Pad: 1}
		e := 0
		if kind == autotune.Winograd {
			e = 2
		}
		sp, err := autotune.NewSpace(s, memsim.V100, kind, e, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := autotune.DefaultOptions()
		opts.Budget = 16
		tr, err := autotune.TuneResumed(cache, sp, autotune.KindMeasurer(memsim.V100, s, kind), opts)
		if err != nil {
			t.Fatal(err)
		}
		entry, _ := cache.Entry(memsim.V100.Name, kind, s)
		parked = append(parked, entry)
		entry.Curve = tr.Curve // what the cache held before curves were derived
		withCurves = append(withCurves, entry)
	}

	path := filepath.Join(t.TempDir(), "state.handoff")
	if err := writeJSONFile(path, handoffFile{Version: auxFormatVersion, Peers: map[string][]autotune.CacheEntry{"p": parked}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(handoffFile{Version: auxFormatVersion, Peers: map[string][]autotune.CacheEntry{"p": withCurves}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sidecar bytes moved:\n got  %s\n want %s", got, want)
	}
	var back handoffFile
	if !readJSONFile(path, &back) || len(back.Peers["p"]) != len(parked) {
		t.Fatalf("sidecar did not restore: %+v", back)
	}
}

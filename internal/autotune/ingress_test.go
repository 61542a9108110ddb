package autotune

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/shapes"
)

// stateEntry tunes a small 3×3 unit-stride layer and returns the
// state-carrying cache entry PutTrace persists for it.
func stateEntry(t *testing.T) CacheEntry {
	t.Helper()
	s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 8, Win: 8, Cout: 16, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Tune(sp, KindMeasurer(arch, s, Direct), smallOpts(24, 3))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.PutTrace(arch.Name, Direct, s, tr)
	for _, e := range c.snapshot() {
		return e
	}
	t.Fatal("PutTrace stored nothing")
	return CacheEntry{}
}

// Every cache ingress — Load, PutEntries (the replication endpoint's
// receiver) and RecoverFile's salvage — rejects an entry whose verdict or
// rows carry a config no space of its kind can take. Accepted, such a
// verdict reaches a warm sweep as a seed candidate, and snapping it panics
// the search's goroutine: an empty axis for a tile edge the kind lacks, a divide
// by zero for a zero thread count. A verdict time that is not positive would
// outrank every measured verdict of its key for good. The sweep at the end
// runs over the salvaged cache of each case and must finish.
func TestCacheIngressRejectsUnusableConfigs(t *testing.T) {
	base := stateEntry(t)
	good := envelopeEntries(t, "fft")[0]
	for name, mutate := range map[string]func(*CacheEntry){
		"row edge off the kind's axes": func(e *CacheEntry) {
			for j := range e.Rows {
				e.Rows[j].Config.WinogradE = 2
			}
		},
		"row thread count zero": func(e *CacheEntry) {
			for j := range e.Rows {
				e.Rows[j].Config.ThreadsX = 0
			}
		},
		"row Sb zero":                      func(e *CacheEntry) { e.Rows[0].Config.SharedPerBlock = 0 },
		"verdict tile zero":                func(e *CacheEntry) { e.Config.TileZ = 0 },
		"verdict edge off the kind's axes": func(e *CacheEntry) { e.Config.WinogradE = 4 },
		"verdict seconds zero":             func(e *CacheEntry) { e.Seconds = 0 },
		"verdict seconds negative":         func(e *CacheEntry) { e.Seconds = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := base
			bad.Rows = append([]CachedMeasurement(nil), base.Rows...)
			mutate(&bad)
			if _, err := bad.Key(); err == nil {
				t.Fatal("Key accepted the entry")
			}

			c := NewCache()
			if err := c.PutEntries([]CacheEntry{good, bad}); err == nil || c.Len() != 0 {
				t.Errorf("PutEntries: err=%v, %d entries committed", err, c.Len())
			}
			env, err := EncodeEntries([]CacheEntry{good, bad})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Load(bytes.NewReader(env)); err == nil || c.Len() != 0 {
				t.Errorf("Load: err=%v, %d entries committed", err, c.Len())
			}

			// A torn file: both entries whole, the envelope's tail cut off.
			torn, err := json.Marshal(cacheFile{Version: cacheFormatVersion, Entries: []CacheEntry{bad, good}})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "state.cache")
			if err := os.WriteFile(path, torn[:len(torn)-2], 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, salvaged, err := c.RecoverFile(path)
			if err != nil || !salvaged || loaded != 1 || c.Len() != 1 {
				t.Fatalf("RecoverFile: loaded=%d salvaged=%v err=%v len=%d, want the one good entry",
					loaded, salvaged, err, c.Len())
			}

			layers := []NetworkLayer{{Name: "novel", Repeat: 1, Shape: shapes.ConvShape{Batch: 1,
				Cin: 32, Hin: 8, Win: 8, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}}}
			if _, err := TuneNetwork(arch, layers, c, NetworkOptions{Tune: smallOpts(16, 1), Warm: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A verdict time JSON cannot carry — infinite or NaN — fails Key, so
// PutEntries, which takes entries no decoder has seen, rejects it too.
func TestCacheIngressRejectsNonFiniteVerdicts(t *testing.T) {
	for _, seconds := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		e := stateEntry(t)
		e.Seconds = seconds
		if _, err := e.Key(); err == nil {
			t.Errorf("Key accepted a verdict of %v s", seconds)
		}
		c := NewCache()
		if err := c.PutEntries([]CacheEntry{e}); err == nil || c.Len() != 0 {
			t.Errorf("PutEntries of a verdict of %v s: err=%v, %d entries committed", seconds, err, c.Len())
		}
	}
}

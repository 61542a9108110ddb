package autotune

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memsim"
)

// envelopeSeeds is the envelope corpus both decoder fuzz targets share.
var envelopeSeeds = [][]byte{
	// The retired version-1 format, a bare entry array: rejected like any
	// other non-envelope (the two decoders used to disagree on it).
	[]byte(`[{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":0,"Layout":0,"WinogradE":0},"seconds":0.001,"gflops":10}]`),
	// The current envelope with engine state.
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"winograd","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":2},"seconds":0.002,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":2},"seconds":0.002,"ok":true}],"budget":4}]}`),
	// Malformed variants the loader must reject gracefully.
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"fft","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":16,"TileY":1,"TileZ":4,"ThreadsX":16,"ThreadsY":1,"ThreadsZ":4,"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":0.003}]}`),
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"igemm","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":16,"Hker":3,"Wker":3,"Stride":1,"Pad":1,"Groups":4},"config":{"TileX":4,"TileY":4,"TileZ":2,"ThreadsX":4,"ThreadsY":4,"ThreadsZ":2,"SharedPerBlock":2048,"Layout":0,"WinogradE":0},"seconds":0.001}]}`),
	// Config values past int32: a verdict's and a row's.
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":4294967297,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":0.001}]}`),
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":0.001,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":-2147483649,"Layout":0,"WinogradE":0},"seconds":0.001,"ok":true}]}]}`),
	// Values past the narrowed fields, int16 and int8: a verdict's TileZ of
	// 32768 and a row's layout of 128.
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":32768,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":0.001}]}`),
	[]byte(`{"version":3,"entries":[{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":0},"seconds":0.001,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":128,"WinogradE":0},"seconds":0.001,"ok":true}]}]}`),
	// The retired version 2, whose entries and rows carried a rate and
	// entries a best-so-far curve: rejected by its version.
	[]byte(`{"version":2,"entries":[{"arch":"V100","kind":"winograd","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":2},"seconds":0.002,"gflops":5,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":4096,"Layout":0,"WinogradE":2},"seconds":0.002,"gflops":5,"ok":true}],"curve":[5],"budget":4}]}`),
	[]byte(`{"version":4,"entries":[]}`),
	[]byte(`[{"arch":"V100","kind":"im2col"}]`),
	[]byte(`[{"arch":"V100","kind":"direct","seconds":-1}]`),
	[]byte(`[`),
	[]byte(``),
	[]byte(`null`),
}

// addEnvelopeSeeds seeds a fuzz target with envelopeSeeds.
func addEnvelopeSeeds(f *testing.F) {
	for _, seed := range envelopeSeeds {
		f.Add(seed)
	}
}

// The seeds run under plain `go test`, so at least one must decode to an
// entry with rows: otherwise neither FuzzCacheLoad's round trip nor
// FuzzEnvelopeDecode's snapRows sees engine state unless a fuzzer runs.
func TestEnvelopeSeedsCarryRows(t *testing.T) {
	for _, seed := range envelopeSeeds {
		entries, err := DecodeEntries(seed)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if len(e.Rows) > 0 {
				return
			}
		}
	}
	t.Fatal("no envelope seed decodes to an entry with rows")
}

// The cache loader parses untrusted bytes — a state file may come off a
// shared filesystem or a half-written shutdown. The contract under fuzzing:
// any input either loads or errors, never panics, and whatever loads
// survives a save/reload round trip.
func FuzzCacheLoad(f *testing.F) {
	addEnvelopeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		if err := c.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := c.Save(&out); err != nil {
			t.Fatalf("loaded cache failed to save: %v", err)
		}
		if err := NewCache().Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("saved cache failed to reload: %v", err)
		}
	})
}

// readCorpusFile decodes one single-[]byte entry of the go-fuzz corpus file
// format ("go test fuzz v1", then a quoted []byte literal).
func readCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		return nil, os.ErrInvalid
	}
	lit, err := strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
	return []byte(lit), err
}

// The envelope has one codec behind three entry points, and the replication
// endpoint (/v1/cluster/replicate) feeds DecodeEntries bytes straight off the
// network. Differential contract: for any input, DecodeEntries and Cache.Load
// accept and reject alike, what DecodeEntries returns is exactly the key set
// Load commits, and every row it returns can be featurized and snapped on its
// entry's space — what a resumed search and a warm sweep do with its configs.
func FuzzEnvelopeDecode(f *testing.F) {
	addEnvelopeSeeds(f)
	// FuzzCacheLoad's checked-in findings exercise the same decoder; replay
	// them here too rather than keeping a second copy on disk.
	corpus, err := filepath.Glob("testdata/fuzz/FuzzCacheLoad/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("FuzzCacheLoad corpus not found: %v", err)
	}
	for _, path := range corpus {
		data, err := readCorpusFile(path)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, decErr := DecodeEntries(data)
		c := NewCache()
		loadErr := c.Load(bytes.NewReader(data))
		if (decErr == nil) != (loadErr == nil) {
			t.Fatalf("decoders disagree: DecodeEntries err=%v, Load err=%v", decErr, loadErr)
		}
		if decErr != nil {
			if c.Len() != 0 {
				t.Fatalf("rejected load committed %d entries", c.Len())
			}
			return
		}
		want := make(map[string]bool)
		for _, e := range entries {
			key, err := e.Key()
			if err != nil {
				t.Fatalf("DecodeEntries returned an invalid entry: %v", err)
			}
			want[key] = true
		}
		got := c.snapshot()
		if len(got) != len(want) {
			t.Fatalf("Load committed %d keys, DecodeEntries yields %d", len(got), len(want))
		}
		for key := range got {
			if !want[key] {
				t.Fatalf("Load committed key %q that DecodeEntries did not yield", key)
			}
		}
		for _, e := range entries {
			snapRows(e)
		}
	})
}

// fuzzMaxDim bounds the shapes snapRows builds a space for: enumerating the
// divisors of a huge axis would time the fuzzer out, not find a crash.
const fuzzMaxDim = 1024

// snapRows does to an accepted entry's rows what the engine does with its
// configs — featurize each row on the entry's space, as a resumed search's
// replay does, and snap it, as a warm sweep snaps a verdict into its space —
// where the entry's kind admits its shape. A row the decoder let through that
// the engine cannot take panics here.
func snapRows(e CacheEntry) {
	s := e.Shape.shape()
	if max(s.Batch, s.Cin, s.Hin, s.Win, s.Cout, s.Hker, s.Wker, s.Pad) > fuzzMaxDim {
		return
	}
	kind, err := kindFromString(e.Kind)
	if err != nil {
		return
	}
	a, err := memsim.ByName(e.Arch)
	if err != nil {
		a = arch
	}
	sp, err := NewSpace(s, a, kind, 0, true)
	if err != nil {
		return
	}
	for _, h := range e.history() {
		sp.Features(h.Config)
		sp.Snap(h.Config)
	}
}

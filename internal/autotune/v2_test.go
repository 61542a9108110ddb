package autotune

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/shapes"
)

// v2Cache is a cache file the version-2 Save wrote: a Direct and a Winograd
// search at budget 2, their verdicts and rows carrying a "gflops" rate and
// their best-so-far rates stored as "curve", under a valid checksum.
const v2Cache = `{
  "version": 2,
  "checksum": "crc32c:f246836d",
  "entries": [
    {
      "arch": "V100",
      "kind": "direct",
      "shape": {
        "Batch": 1,
        "Cin": 16,
        "Hin": 8,
        "Win": 8,
        "Cout": 8,
        "Hker": 3,
        "Wker": 3,
        "Stride": 1,
        "Pad": 1,
        "Groups": 0
      },
      "config": {
        "TileX": 1,
        "TileY": 1,
        "TileZ": 1,
        "ThreadsX": 1,
        "ThreadsY": 1,
        "ThreadsZ": 1,
        "SharedPerBlock": 384,
        "Layout": 2,
        "WinogradE": 0
      },
      "seconds": 0.000054669444295302014,
      "gflops": 2.6972288067078733,
      "rows": [
        {
          "config": {
            "TileX": 1,
            "TileY": 1,
            "TileZ": 1,
            "ThreadsX": 1,
            "ThreadsY": 1,
            "ThreadsZ": 1,
            "SharedPerBlock": 12288,
            "Layout": 0,
            "WinogradE": 0
          },
          "seconds": 0.00016914222174496644,
          "gflops": 0.8717870587175741,
          "ok": true
        },
        {
          "config": {
            "TileX": 1,
            "TileY": 1,
            "TileZ": 1,
            "ThreadsX": 1,
            "ThreadsY": 1,
            "ThreadsZ": 1,
            "SharedPerBlock": 384,
            "Layout": 2,
            "WinogradE": 0
          },
          "seconds": 0.000054669444295302014,
          "gflops": 2.6972288067078733,
          "ok": true
        }
      ],
      "curve": [
        0.8717870587175741,
        2.6972288067078733
      ],
      "budget": 2
    },
    {
      "arch": "V100",
      "kind": "winograd",
      "shape": {
        "Batch": 1,
        "Cin": 16,
        "Hin": 8,
        "Win": 8,
        "Cout": 16,
        "Hker": 3,
        "Wker": 3,
        "Stride": 1,
        "Pad": 1,
        "Groups": 0
      },
      "config": {
        "TileX": 4,
        "TileY": 4,
        "TileZ": 1,
        "ThreadsX": 4,
        "ThreadsY": 4,
        "ThreadsZ": 1,
        "SharedPerBlock": 12288,
        "Layout": 0,
        "WinogradE": 4
      },
      "seconds": 0.000013615978523489932,
      "gflops": 65.76743628488597,
      "rows": [
        {
          "config": {
            "TileX": 2,
            "TileY": 2,
            "TileZ": 1,
            "ThreadsX": 2,
            "ThreadsY": 2,
            "ThreadsZ": 1,
            "SharedPerBlock": 12288,
            "Layout": 0,
            "WinogradE": 2
          },
          "seconds": 0.00008283389637583892,
          "gflops": 13.672470444482697,
          "ok": true
        },
        {
          "config": {
            "TileX": 4,
            "TileY": 4,
            "TileZ": 1,
            "ThreadsX": 4,
            "ThreadsY": 4,
            "ThreadsZ": 1,
            "SharedPerBlock": 12288,
            "Layout": 0,
            "WinogradE": 4
          },
          "seconds": 0.000013615978523489932,
          "gflops": 65.76743628488597,
          "ok": true
        }
      ],
      "curve": [
        13.672470444482697,
        65.76743628488597
      ],
      "budget": 2
    }
  ]
}`

// Version 2 is retired: Load and DecodeEntries refuse it with the version
// error, and RecoverFile, the daemon's boot path, salvages every entry —
// the fields version 3 dropped decode away — and moves the file aside.
func TestRetiredV2Envelope(t *testing.T) {
	for name, load := range map[string]func() error{
		"Load":          func() error { return NewCache().Load(strings.NewReader(v2Cache)) },
		"DecodeEntries": func() error { _, err := DecodeEntries([]byte(v2Cache)); return err },
	} {
		if err := load(); err == nil || !strings.Contains(err.Error(), "unsupported cache format version 2 (want 3)") {
			t.Errorf("%s: err %v, want the version error", name, err)
		}
	}

	// The same searches today store the entries the file holds.
	fresh := NewCache()
	var shapesOf []shapes.ConvShape
	kinds := []Kind{Direct, Winograd}
	for i, kind := range kinds {
		s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 8, Win: 8, Cout: 8 * (i + 1), Hker: 3, Wker: 3, Strid: 1, Pad: 1}
		sp, err := NewSpace(s, memsim.V100, kind, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Budget = 2
		if _, err := TuneResumed(fresh, sp, KindMeasurer(memsim.V100, s, kind), opts); err != nil {
			t.Fatal(err)
		}
		shapesOf = append(shapesOf, s)
	}

	path := filepath.Join(t.TempDir(), "tuned.cache")
	if err := os.WriteFile(path, []byte(v2Cache), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	loaded, salvaged, err := c.RecoverFile(path)
	if err != nil || !salvaged || loaded != len(kinds) {
		t.Fatalf("RecoverFile loaded %d (salvaged %v, err %v), want all %d entries salvaged", loaded, salvaged, err, len(kinds))
	}
	for i, kind := range kinds {
		got, ok := c.Entry(memsim.V100.Name, kind, shapesOf[i])
		want, _ := fresh.Entry(memsim.V100.Name, kind, shapesOf[i])
		if !ok || len(got.Rows) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: salvaged %+v, want %+v", kind, got, want)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the v2 file is still in place (%v)", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("the v2 file was not moved to .corrupt: %v", err)
	}
}

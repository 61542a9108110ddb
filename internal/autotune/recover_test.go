package autotune

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// Crash-safety tests for the persisted cache: atomic file replacement,
// checksum-verified loads, and salvage of files torn by a mid-write kill.

// seedCache builds a cache with n distinct entries.
func seedCache(t *testing.T, n int) *Cache {
	t.Helper()
	c := NewCache()
	s := layer()
	for i := 0; i < n; i++ {
		sh := s
		sh.Cout = s.Cout + i // distinct shapes -> distinct keys
		cfg := conv.Config{TileX: 9, TileY: 3, TileZ: 8, ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2,
			SharedPerBlock: 4096}
		c.Put(arch.Name, Direct, sh, cfg, Measurement{Seconds: 1.5e-4 * float64(i+1)})
	}
	return c
}

func entryShape(i int) shapes.ConvShape {
	s := layer()
	s.Cout += i
	return s
}

// SaveFile must be atomic: the final file round-trips, and no temp
// litter survives a successful save (or an overwrite of a prior state).
func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.cache")
	c := seedCache(t, 3)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with more state: rename-over must replace cleanly.
	c.Put(arch.Name, Direct, entryShape(7), conv.Config{TileX: 3, TileY: 3, TileZ: 4,
		ThreadsX: 3, ThreadsY: 3, ThreadsZ: 2, SharedPerBlock: 2048}, Measurement{Seconds: 2e-4})
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if e.Name() != "state.cache" {
			t.Errorf("temp litter after SaveFile: %s", e.Name())
		}
	}

	restored := NewCache()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != c.Len() {
		t.Errorf("restored %d entries, want %d", restored.Len(), c.Len())
	}
}

// The persisted checksum catches silent bit rot that still parses as
// JSON: a single flipped digit inside the entries must fail the load.
func TestLoadChecksumDetectsBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := seedCache(t, 2).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"checksum": "crc32c:`)) {
		t.Fatal("saved file carries no checksum")
	}
	// Seconds 0.00015 -> 0.00095: valid JSON, valid entry, wrong bytes.
	rotted := bytes.Replace(data, []byte(`"seconds": 0.00015`), []byte(`"seconds": 0.00095`), 1)
	if bytes.Equal(rotted, data) {
		t.Fatal("test corruption did not apply")
	}
	err = NewCache().Load(bytes.NewReader(rotted))
	if err == nil {
		t.Fatal("bit-rotted file loaded cleanly")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("wrong error for bit rot: %v", err)
	}
}

// RecoverFile on an intact file is a plain load: everything in, nothing
// salvaged, no renames.
func TestRecoverFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := seedCache(t, 3).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	loaded, salvaged, err := c.RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if salvaged || loaded != 3 || c.Len() != 3 {
		t.Errorf("intact recover: loaded=%d salvaged=%v len=%d, want 3/false/3", loaded, salvaged, c.Len())
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("intact file disturbed: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Error("intact recover left a .corrupt file")
	}
}

// A file torn by a mid-write kill — the tail cut off — salvages its
// complete entries, sets the damaged original aside as .corrupt, and the
// recovered entries answer Gets.
func TestRecoverFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := seedCache(t, 3).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the closing bytes of the envelope: every entry is still whole,
	// but the file no longer parses (and fails its checksum regardless).
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	loaded, salvaged, err := c.RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !salvaged {
		t.Fatal("torn file not reported as salvaged")
	}
	if loaded != 3 || c.Len() != 3 {
		t.Errorf("salvage recovered %d entries (len %d), want all 3", loaded, c.Len())
	}
	if _, _, ok := c.Get(arch.Name, Direct, entryShape(1)); !ok {
		t.Error("salvaged entry not retrievable")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("damaged original still in place")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("damaged file not set aside: %v", err)
	}
}

// A deeper tear — cut mid-entry — recovers the prefix of whole entries
// and drops the mangled one.
func TestRecoverFileTornMidEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := seedCache(t, 4).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	loaded, salvaged, err := c.RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !salvaged {
		t.Fatal("torn file not reported as salvaged")
	}
	if loaded < 1 || loaded >= 4 {
		t.Errorf("mid-entry tear salvaged %d entries, want a nonempty strict prefix of 4", loaded)
	}
	if c.Len() != loaded {
		t.Errorf("cache holds %d entries, salvage reported %d", c.Len(), loaded)
	}
}

// An unreadable file — garbage, or the retired version-1 bare array, which
// is now just another unsupported format — recovers nothing but still
// clears the path for the next snapshot.
func TestRecoverFileGarbage(t *testing.T) {
	for name, content := range map[string]string{
		"garbage":  "!!! not a cache file {{{",
		"v1 array": `[` + validEntryJSON("direct") + `]`,
	} {
		path := filepath.Join(t.TempDir(), "state.cache")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		loaded, salvaged, err := c.RecoverFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !salvaged || loaded != 0 || c.Len() != 0 {
			t.Errorf("%s recover: loaded=%d salvaged=%v len=%d, want 0/true/0", name, loaded, salvaged, c.Len())
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Errorf("%s file not set aside: %v", name, err)
		}
	}
}

// A missing state file is a fresh boot, not an error.
func TestRecoverFileMissing(t *testing.T) {
	loaded, salvaged, err := NewCache().RecoverFile(filepath.Join(t.TempDir(), "absent.cache"))
	if err != nil || loaded != 0 || salvaged {
		t.Errorf("missing file: loaded=%d salvaged=%v err=%v, want 0/false/nil", loaded, salvaged, err)
	}
}

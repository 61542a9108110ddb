package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// testEntry builds a valid cache entry; cout varies the cache key, seconds
// distinguishes writes to the same key.
func testEntry(t *testing.T, cout int, seconds float64) autotune.CacheEntry {
	t.Helper()
	raw := fmt.Sprintf(`{"arch":"V100","kind":"direct",
		"shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":%d,"Hker":3,"Wker":3,"Stride":1,"Pad":1},
		"config":{"TileX":16,"TileY":1,"TileZ":4,"ThreadsX":16,"ThreadsY":1,"ThreadsZ":4,"SharedPerBlock":4096},
		"seconds":%g}`, cout, seconds)
	var e autotune.CacheEntry
	if err := json.Unmarshal([]byte(raw), &e); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Key(); err != nil {
		t.Fatalf("test entry invalid: %v", err)
	}
	return e
}

// Writes to one key dedup to one queued entry, the better verdict, in either
// arrival order.
func TestHandoffDedupKeepsBetterEntry(t *testing.T) {
	const peer = "http://127.0.0.1:9912"
	for _, order := range [][]float64{{0.010, 0.003}, {0.003, 0.010}} {
		h := NewHandoff(16)
		h.Queue(peer, []autotune.CacheEntry{testEntry(t, 8, order[0])})
		h.Queue(peer, []autotune.CacheEntry{testEntry(t, 8, order[1]), testEntry(t, 32, 0.007)})
		if d := len(h.Snapshot()[peer]); d != 2 {
			t.Fatalf("order %v: depth %d after dedup, want 2", order, d)
		}
		got := h.Take(peer)
		if len(got) != 2 {
			t.Fatalf("order %v: took %d entries, want 2", order, len(got))
		}
		for _, e := range got {
			if e.Shape.Cout == 8 && e.Seconds != 0.003 {
				t.Fatalf("order %v: the worse write survived: seconds %v, want 0.003", order, e.Seconds)
			}
		}
		if h.Take(peer) != nil {
			t.Fatal("second Take returned entries")
		}
	}
}

func TestHandoffBoundDropsAndCounts(t *testing.T) {
	h := NewHandoff(2)
	const peer = "p"
	h.Queue(peer, []autotune.CacheEntry{
		testEntry(t, 8, 1), testEntry(t, 16, 1), testEntry(t, 32, 1),
	})
	if d := len(h.Snapshot()[peer]); d != 2 {
		t.Fatalf("depth %d, want bound 2", d)
	}
	// Updating a queued key costs no capacity even at the bound.
	h.Queue(peer, []autotune.CacheEntry{testEntry(t, 8, 2)})
	if d := len(h.Snapshot()[peer]); d != 2 {
		t.Fatalf("in-place update changed depth to %d", d)
	}
	// Invalid entries are dropped, not queued.
	h.Queue("other", []autotune.CacheEntry{{Arch: "V100", Kind: "no-such-kind"}})
	if d := len(h.Snapshot()["other"]); d != 0 {
		t.Fatalf("invalid entry queued (depth %d)", d)
	}
	queued, _, dropped := h.Stats()
	if queued != 3 || dropped != 2 {
		t.Fatalf("stats queued=%d dropped=%d, want 3 and 2", queued, dropped)
	}
}

// A failed drain parks its batch again through Queue. A key queued again
// since the Take keeps whichever entry is better: the better write made
// during the drain, or the drained entry over a worse one.
func TestHandoffRequeuePreservesFresherWrites(t *testing.T) {
	h := NewHandoff(16)
	const peer = "p"
	h.Queue(peer, []autotune.CacheEntry{testEntry(t, 8, 0.010), testEntry(t, 16, 0.020)})
	taken := h.Take(peer)
	h.Queue(peer, []autotune.CacheEntry{testEntry(t, 8, 0.001), testEntry(t, 16, 0.030)}) // mid-replay
	h.Queue(peer, taken)
	if d := len(h.Snapshot()[peer]); d != 2 {
		t.Fatalf("depth %d after the re-park, want 2", d)
	}
	for _, e := range h.Take(peer) {
		if want := map[int]float64{8: 0.001, 16: 0.020}[e.Shape.Cout]; e.Seconds != want {
			t.Errorf("key %d holds seconds %v after the re-park, want %v", e.Shape.Cout, e.Seconds, want)
		}
	}
}

func TestHandoffSnapshotRestoreRoundTrip(t *testing.T) {
	h := NewHandoff(16)
	h.Queue("a", []autotune.CacheEntry{testEntry(t, 8, 1), testEntry(t, 16, 1)})
	h.Queue("b", []autotune.CacheEntry{testEntry(t, 32, 1)})
	snap := h.Snapshot()
	if h.DepthAll() != 3 {
		t.Fatalf("snapshot drained the queue (depth %d)", h.DepthAll())
	}

	// The snapshot must survive the JSON round trip the daemon's persistence
	// applies to it.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string][]autotune.CacheEntry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored := NewHandoff(16)
	for peer, entries := range back {
		restored.Queue(peer, entries)
	}
	if restored.DepthAll() != 3 || len(restored.Snapshot()["a"]) != 2 || len(restored.Snapshot()["b"]) != 1 {
		t.Fatalf("restored depths a=%d b=%d total=%d, want 2/1/3",
			len(restored.Snapshot()["a"]), len(restored.Snapshot()["b"]), restored.DepthAll())
	}
}

// stateEntries tunes a few small searches into a cache and returns the
// entries a replica would ship for them: rows and no curve, as cached.
func stateEntries(t *testing.T) []autotune.CacheEntry {
	t.Helper()
	cache := autotune.NewCache()
	var entries []autotune.CacheEntry
	for _, cout := range []int{8, 16, 32} {
		s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 8, Win: 8, Cout: cout, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
		sp, err := autotune.NewSpace(s, memsim.V100, autotune.Direct, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := autotune.DefaultOptions()
		opts.Budget = 12
		if _, err := autotune.TuneResumed(cache, sp, autotune.KindMeasurer(memsim.V100, s, autotune.Direct), opts); err != nil {
			t.Fatal(err)
		}
		e, _ := cache.Entry(memsim.V100.Name, autotune.Direct, s)
		if len(e.Rows) == 0 {
			t.Fatal("cached entry has no rows")
		}
		entries = append(entries, e)
	}
	return entries
}

// A replica queues an entry slice for a down peer and, on another goroutine,
// encodes the same slice for the peers that are up. Encoding must never
// write to the slice the queue shares (run under -race), and the entries
// cross the wire whole.
func TestHandoffSharedEntriesUnderEncode(t *testing.T) {
	entries := stateEntries(t)
	want, err := autotune.EncodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandoff(16)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				switch g {
				case 0:
					h.Queue("down", entries)
				case 1:
					if _, err := json.Marshal(h.Snapshot()); err != nil {
						t.Error(err)
					}
				default:
					if got, err := autotune.EncodeEntries(entries); err != nil || !bytes.Equal(got, want) {
						t.Errorf("concurrent EncodeEntries differs (%v)", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	back, err := autotune.DecodeEntries(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Error("entries changed crossing the wire")
	}
}

package autotune

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// evictShape makes the i-th of a family of distinct valid shapes.
func evictShape(i int) shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 4 * (i + 1), Cout: 8, Hin: 8, Win: 8,
		Hker: 3, Wker: 3, Strid: 1, Pad: 1}
}

// The LRU property: inserting far more distinct keys than the cap leaves
// the cache at or under the cap with every insert accounted for — each key
// is either resident or counted evicted — and the survivors are exactly a
// most-recently-used suffix of the insert order (the logical LRU clock is
// strictly monotonic, so insert order is usage order here).
func TestEvictionLRUBoundsAndRecency(t *testing.T) {
	const cap, inserts = 16, 50
	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxEntries: cap})

	for i := 0; i < inserts; i++ {
		// Seconds encodes the insert index.
		c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, Measurement{Seconds: float64(i), GFLOPS: 1})
	}

	if got := c.Len(); got > cap {
		t.Fatalf("cache holds %d entries, cap is %d", got, cap)
	}
	st := c.Stats()
	if st.Entries != c.Len() || int(st.Evictions)+st.Entries != inserts {
		t.Fatalf("Stats() = %+v: %d resident + %d evicted, want every one of %d inserts accounted for",
			st, st.Entries, st.Evictions, inserts)
	}

	// Survivors are the most-recent suffix: residency matches the partition
	// exactly, and every resident answers with its own verdict.
	oldestSurvivor := inserts - c.Len()
	for i := 0; i < inserts; i++ {
		_, m, ok := c.Get(arch.Name, Direct, evictShape(i))
		if want := i >= oldestSurvivor; ok != want {
			t.Errorf("insert #%d resident=%v, want %v", i, ok, want)
		} else if ok && int(m.Seconds) != i {
			t.Errorf("insert #%d answered with insert #%d's verdict", i, int(m.Seconds))
		}
	}

	// Byte accounting must agree with the survivors' own size model.
	var want int64
	for i := oldestSurvivor; i < inserts; i++ {
		want += CacheEntry{Arch: arch.Name, Kind: Direct.String()}.SizeBytes()
	}
	if got := c.Stats().Bytes; got != want {
		t.Errorf("SizeBytes() = %d, want %d (sum over residents)", got, want)
	}
}

// A Get refreshes recency: a key read just before overflow must survive an
// eviction round that removes colder, never-read keys inserted after it.
func TestEvictionGetRefreshesRecency(t *testing.T) {
	const cap = 8
	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxEntries: cap})
	for i := 0; i < cap; i++ {
		c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	}
	// Touch the oldest key, then overflow by one: the victim must be the
	// now-coldest key (#1), not the just-read #0 — without the Get, #0
	// would have been first out.
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); !ok {
		t.Fatal("freshly inserted key missing")
	}
	c.Put(arch.Name, Direct, evictShape(cap), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); !ok {
		t.Error("recently read key was evicted ahead of colder ones")
	}
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(1)); ok {
		t.Error("coldest key survived the overflow")
	}
}

// The TTL: under a fake clock, entries expire exactly when idle longer
// than the policy says — lazily on lookup and in bulk via EvictExpired —
// and a hit restarts an entry's idle clock.
func TestEvictionTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.SetEviction(EvictionPolicy{TTL: time.Minute, Now: func() time.Time { return now }})

	c.Put(arch.Name, Direct, evictShape(0), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	c.Put(arch.Name, Direct, evictShape(1), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})

	now = now.Add(50 * time.Second)
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); !ok {
		t.Fatal("entry expired before its TTL")
	}

	// Shape 0 was touched at t+50s, shape 1 not since t=0. At t+70s only
	// shape 1 has been idle past the minute.
	now = now.Add(20 * time.Second)
	if n := c.EvictExpired(); n != 1 {
		t.Fatalf("EvictExpired() = %d, want 1", n)
	}
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); !ok {
		t.Error("touched entry was swept despite a fresh idle clock")
	}
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(1)); ok {
		t.Error("idle entry survived past its TTL")
	}

	// Lazy path: let the survivor go stale and look it up — the lookup
	// itself must miss and drop it.
	now = now.Add(2 * time.Minute)
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); ok {
		t.Error("stale entry served from a lookup")
	}
	if got := c.Len(); got != 0 {
		t.Errorf("cache holds %d entries after everything expired, want 0", got)
	}
}

// Writes moves on every store and removal — Put, a PutEntries or Load of an
// entry that supersedes the held one, LRU eviction, EvictExpired and a
// lookup's lazy TTL expiry — and on no lookup, hit or miss, and no write the
// held entry outranks.
func TestWritesMovesOnWritesOnly(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxEntries: 2, TTL: time.Minute, Now: func() time.Time { return now }})
	valid := conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1} // Load checks it
	put := func(i int) { c.Put(arch.Name, Direct, evictShape(i), valid, Measurement{Seconds: 1, GFLOPS: 1}) }
	step := func(what string, moves bool, do func()) {
		t.Helper()
		before := c.Writes()
		do()
		if moved := c.Writes() != before; moved != moves {
			t.Errorf("%s: Writes moved %t, want %t", what, moved, moves)
		}
	}
	held := func() CacheEntry {
		e, _ := c.Entry(arch.Name, Direct, evictShape(0))
		return e
	}
	faster := func(by float64) CacheEntry {
		e := held()
		e.Seconds /= by
		return e
	}
	putEntries := func(e CacheEntry) {
		if err := c.PutEntries([]CacheEntry{e}); err != nil {
			t.Fatal(err)
		}
	}
	load := func(e CacheEntry) {
		state, err := EncodeEntries([]CacheEntry{e})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
	}
	step("Put", true, func() { put(0) })
	step("hit", false, func() { c.Get(arch.Name, Direct, evictShape(0)) })
	step("miss", false, func() { c.Get(arch.Name, Direct, evictShape(9)) })
	step("PutEntries of the held entry", false, func() { putEntries(held()) })
	step("PutEntries of a faster verdict", true, func() { putEntries(faster(2)) })
	step("Load of the held entry", false, func() { load(held()) })
	step("Load of a faster verdict", true, func() { load(faster(2)) })
	step("Put of a slower verdict", false, func() { put(0) })
	put(1)
	evicted := c.Stats().Evictions
	writes := c.Writes()
	put(2) // over MaxEntries: evicts
	if n := c.Stats().Evictions - evicted; n == 0 || c.Writes()-writes != uint64(1+n) {
		t.Errorf("an evicting Put moved Writes by %d over %d evictions, want one move for the put and one per eviction",
			c.Writes()-writes, n)
	}
	now = now.Add(2 * time.Minute)
	step("lazy TTL expiry", true, func() {
		if _, _, ok := c.Get(arch.Name, Direct, evictShape(2)); ok {
			t.Fatal("an expired entry was served")
		}
	})
	step("EvictExpired", true, func() {
		if c.EvictExpired() == 0 {
			t.Fatal("nothing expired")
		}
	})
	step("EvictExpired of nothing", false, func() { c.EvictExpired() })
}

// MaxBytes alone also bounds the cache, evicting in LRU order by the
// entries' size model.
func TestEvictionMaxBytes(t *testing.T) {
	perEntry := CacheEntry{Arch: arch.Name, Kind: Direct.String()}.SizeBytes()
	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxBytes: 10 * perEntry})
	for i := 0; i < 40; i++ {
		c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	}
	if got, cap := c.Stats().Bytes, 10*perEntry; got > cap {
		t.Errorf("SizeBytes() = %d, cap is %d", got, cap)
	}
	if c.Len() == 0 {
		t.Error("byte cap evicted everything")
	}
}

// Eviction is capacity management, not state: re-requesting an evicted key
// re-runs the deterministic engine and reproduces the verdict bit for bit.
func TestEvictedKeyRetunesIdentically(t *testing.T) {
	opts := smallOpts(24, 9)
	shape := evictShape(0)
	sp, err := NewSpace(shape, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	measure := KindMeasurer(arch, shape, Direct)

	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxEntries: 4})
	cfg1, m1, err := TuneCached(c, sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Push the tuned key out with filler traffic, then prove it is gone.
	for i := 1; i <= 16; i++ {
		c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	}
	if _, _, ok := c.Get(arch.Name, Direct, shape); ok {
		t.Fatal("tuned key survived the filler flood; eviction untested")
	}

	cfg2, m2, err := TuneCached(c, sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg1 != cfg2 || m1 != m2 {
		t.Errorf("re-tuned verdict differs: (%+v, %+v) != (%+v, %+v)", cfg2, m2, cfg1, m1)
	}
}

// Holds and Misses book nothing, and Book books a probe's lookups as Entry
// does: under an LRU bound, a key only checked is still first out, and one
// booked survives the overflow that evicts a colder key instead; the counts
// move by the booked hit and miss alone.
func TestReplayChecksBookNothing(t *testing.T) {
	const cap = 8
	c := NewCache()
	c.SetEviction(EvictionPolicy{MaxEntries: cap})
	m := Measurement{Seconds: 1, GFLOPS: 1}
	for i := 0; i < cap; i++ {
		c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, m)
	}
	held := []CoveredSearch{{Search{Kind: Direct, Shape: evictShape(0)}, conv.Config{}, m},
		{Search{Kind: Direct, Shape: evictShape(cap + 1)}, conv.Config{}, Measurement{}}}
	before := c.Stats()
	if !c.Holds(arch.Name, &held[0], 0, false) || !c.Misses(arch.Name, &held[1].Search, 0, false) {
		t.Fatal("the checks do not see the cache as it stands")
	}
	if st := c.Stats(); st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatalf("the checks booked %d hits and %d misses", st.Hits-before.Hits, st.Misses-before.Misses)
	}
	c.Book(arch.Name, held)
	if st := c.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses+1 {
		t.Fatalf("Book booked %d hits and %d misses, want 1 and 1", st.Hits-before.Hits, st.Misses-before.Misses)
	}
	c.Put(arch.Name, Direct, evictShape(cap), conv.Config{}, m)
	if _, ok := c.lookup(arch.Name, Direct, evictShape(0), false); !ok {
		t.Error("the booked key was evicted ahead of colder ones")
	}
	if _, ok := c.lookup(arch.Name, Direct, evictShape(1), false); ok {
		t.Error("the coldest key survived the overflow")
	}
}

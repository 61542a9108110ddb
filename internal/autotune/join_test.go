package autotune

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// joinGen draws cache entries of a few keys from small value pools, so that
// entries drawn apart often tie on some fields and differ on others.
type joinGen struct {
	rng  *rand.Rand
	keys int // shapes to draw from; 1 is one key
}

var (
	joinConfigs = []cachedConfig{
		{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 64},
		{TileX: 2, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 64},
		{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 2, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 128},
	}
	joinSeconds = []float64{1e-3, 2e-3, 3e-3}
	// A failed row's time: 0 and -0 compare equal but encode apart.
	joinFailedSeconds = []float64{0, math.Copysign(0, -1)}
)

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.Intn(len(pool))] }

// shape is the i-th key's shape, with Groups 0 or 1: the same key.
func (g joinGen) shape(i int) cachedShape {
	cs := shapeToCached(evictShape(i))
	cs.Groups = g.rng.Intn(2)
	return cs
}

func (g joinGen) row() CachedMeasurement {
	r := CachedMeasurement{Config: pick(g.rng, joinConfigs), Seconds: pick(g.rng, joinSeconds),
		OK: g.rng.Intn(4) > 0}
	if !r.OK {
		r.Seconds = pick(g.rng, joinFailedSeconds)
	}
	return r
}

func (g joinGen) rows() []CachedMeasurement {
	n := g.rng.Intn(4)
	if n == 0 {
		return nil
	}
	rows := make([]CachedMeasurement, n)
	for i := range rows {
		rows[i] = g.row()
	}
	return rows
}

// entry draws a valid entry.
func (g joinGen) entry() CacheEntry {
	e := CacheEntry{Arch: arch.Name, Kind: Direct.String(), Shape: g.shape(g.rng.Intn(g.keys)),
		Config: pick(g.rng, joinConfigs), Seconds: pick(g.rng, joinSeconds), Rows: g.rows()}
	e.Budget = len(e.Rows) + g.rng.Intn(3)
	if g.rng.Intn(4) == 0 {
		e.Budget = 0 // an older file's: the rows stand in
	}
	return e
}

// mutate redraws up to two fields of e, so most pairs of entries it relates
// tie on everything else.
func (g joinGen) mutate(e CacheEntry) CacheEntry {
	e.Rows = slices.Clone(e.Rows)
	for range g.rng.Intn(3) {
		switch g.rng.Intn(7) {
		case 0:
			e.Seconds = pick(g.rng, joinSeconds)
		case 1:
			e.Config = pick(g.rng, joinConfigs)
		case 2:
			e.Shape.Groups = 1 - e.Shape.Groups
		case 3:
			e.Budget = g.rng.Intn(5)
		case 4:
			e.Rows = g.rows()
		case 5:
			for i := range e.Rows {
				if !e.Rows[i].OK {
					e.Rows[i].Seconds = -e.Rows[i].Seconds // 0 to -0 and back
				}
			}
		default:
			if len(e.Rows) > 0 {
				e.Rows[g.rng.Intn(len(e.Rows))] = g.row()
			}
		}
	}
	return e
}

func encoded(t *testing.T, e CacheEntry) []byte {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The join property: over random entries of one key, with ties forced on
// seconds, config, rows, budget and Groups 0/1, Supersedes is irreflexive,
// antisymmetric and transitive, and two entries tie — neither supersedes the
// other — exactly when they encode to the same bytes.
func TestSupersedesIsAStrictTotalOrder(t *testing.T) {
	g := joinGen{rng: rand.New(rand.NewSource(1)), keys: 1}
	ties := 0
	for i := 0; i < 4000; i++ {
		a := g.entry()
		b := g.mutate(a)
		c := g.mutate(b)
		if g.rng.Intn(2) == 0 {
			c = g.entry()
		}
		es := []CacheEntry{a, b, c}
		enc := [][]byte{encoded(t, a), encoded(t, b), encoded(t, c)}
		for xi, x := range es {
			if x.Supersedes(x) {
				t.Fatalf("case %d: %+v supersedes itself", i, x)
			}
			for yi, y := range es {
				xy, yx := x.Supersedes(y), y.Supersedes(x)
				if xy && yx {
					t.Fatalf("case %d: %+v and %+v supersede each other", i, x, y)
				}
				if same := bytes.Equal(enc[xi], enc[yi]); same != (!xy && !yx) {
					t.Fatalf("case %d: encodings equal %t, but x over y %t and y over x %t:\n%+v\n%+v", i, same, xy, yx, x, y)
				}
				if !xy && !yx {
					ties++
				}
				for _, z := range es {
					if xy && y.Supersedes(z) && !x.Supersedes(z) {
						t.Fatalf("case %d: not transitive over\n%+v\n%+v\n%+v", i, x, y, z)
					}
				}
			}
		}
	}
	if ties <= 3*4000 {
		t.Errorf("only the %d self-comparisons tied: no distinct entries encoded alike", ties)
	}
}

// The order's keys, one at a time: the verdict first (seconds, then
// configLess), then more rows, then the covered budget; a certified verdict
// is never displaced by a longer search; a re-put of the held entry stores
// nothing and marshals nothing.
func TestSupersedesOrder(t *testing.T) {
	base := CacheEntry{Arch: arch.Name, Kind: Direct.String(), Shape: shapeToCached(evictShape(0)),
		Config: joinConfigs[0], Seconds: 2e-3, Budget: 8,
		Rows: []CachedMeasurement{{Config: joinConfigs[0], Seconds: 2e-3, OK: true}}}
	with := func(f func(*CacheEntry)) CacheEntry {
		e := base
		e.Rows = slices.Clone(base.Rows)
		f(&e)
		return e
	}
	for _, c := range []struct {
		name        string
		better, old CacheEntry
	}{
		{"lower seconds over more rows and budget", with(func(e *CacheEntry) { e.Seconds = 1e-3 }),
			with(func(e *CacheEntry) { e.Rows = append(e.Rows, e.Rows[0]); e.Budget = 400 })},
		{"equal seconds: the configLess-first config", base, with(func(e *CacheEntry) { e.Config = joinConfigs[1] })},
		{"equal verdict: more rows over a higher budget", with(func(e *CacheEntry) { e.Rows = append(e.Rows, e.Rows[0]); e.Budget = 2 }),
			with(func(e *CacheEntry) { e.Budget = 48 })},
		{"equal rows: the higher covered budget", with(func(e *CacheEntry) { e.Budget = 9 }), base},
		{"an older file's budget: rows stand in", with(func(e *CacheEntry) { e.Budget = 2 }), with(func(e *CacheEntry) { e.Budget = 0 })},
		{"Groups 0 and 1 are one key but not one encoding", base, with(func(e *CacheEntry) { e.Shape.Groups = 1 })},
	} {
		if !c.better.Supersedes(c.old) || c.old.Supersedes(c.better) {
			t.Errorf("%s: better over old %t, old over better %t", c.name, c.better.Supersedes(c.old), c.old.Supersedes(c.better))
		}
	}

	c := NewCache()
	key, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	c.put(key, base, nil)
	writes := c.Writes()
	if n := testing.AllocsPerRun(100, func() { c.put(key, base, nil) }); n != 0 {
		t.Errorf("a re-put of the held entry allocates %v times", n)
	}
	if c.Writes() != writes {
		t.Errorf("re-puts of the held entry moved Writes by %d", c.Writes()-writes)
	}
}

// A put the held entry outranks stores nothing: not the entry, not Writes,
// not the byte count, and not the entry's recency or TTL stamp — the held
// entry expires on the clock of its own last use.
func TestRejectedPutStoresNothing(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.SetEviction(EvictionPolicy{TTL: time.Minute, Now: func() time.Time { return now }})
	valid := conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1}
	c.Put(arch.Name, Direct, evictShape(0), valid, Measurement{Seconds: 1})
	var before bytes.Buffer
	if err := c.Save(&before); err != nil {
		t.Fatal(err)
	}
	writes, size := c.Writes(), c.Stats().Bytes

	now = now.Add(50 * time.Second)
	c.Put(arch.Name, Direct, evictShape(0), valid, Measurement{Seconds: 2})
	var after bytes.Buffer
	if err := c.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) || c.Writes() != writes || c.Stats().Bytes != size {
		t.Errorf("a slower Put: state unchanged %t, Writes moved %d, bytes %d → %d",
			bytes.Equal(after.Bytes(), before.Bytes()), c.Writes()-writes, size, c.Stats().Bytes)
	}
	now = now.Add(20 * time.Second)
	if _, _, ok := c.Get(arch.Name, Direct, evictShape(0)); ok {
		t.Error("the rejected Put refreshed the held entry's TTL")
	}
}

// traceOf is the trace PutTrace stores e from.
func traceOf(e CacheEntry) *Trace {
	cfg, m := e.verdict()
	return &Trace{Best: cfg, BestM: m, History: e.history(), Budget: e.Budget}
}

// ROADMAP 16, slice 1: a cache's state is a function of the entries it was
// given, not of their order or their ingress. A random multiset of entries
// over a few keys goes into fresh caches in random permutations, each chunk
// through one of PutEntries, Load, RecoverFile's salvage and PutTrace; every
// cache ends with the same Save bytes, and each key holds the fastest verdict
// it was given.
func TestCacheJoinIsOrderInsensitive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := joinGen{rng: rand.New(rand.NewSource(seed)), keys: 3}
		var given []CacheEntry
		for range 12 + g.rng.Intn(12) {
			if len(given) > 0 && g.rng.Intn(3) == 0 {
				given = append(given, g.mutate(given[g.rng.Intn(len(given))]))
			} else {
				given = append(given, g.entry())
			}
			// PutTrace stores at least the row count as the budget.
			e := &given[len(given)-1]
			e.Budget = max(e.Budget, len(e.Rows))
			if g.rng.Intn(5) == 0 {
				given = append(given, *e) // a duplicate
			}
		}
		fastest := make(map[string]float64)
		for _, e := range given {
			key, err := e.Key()
			if err != nil {
				t.Fatalf("seed %d: generated an invalid entry: %v", seed, err)
			}
			if s, ok := fastest[key]; !ok || e.Seconds < s {
				fastest[key] = e.Seconds
			}
		}

		var want []byte
		for perm := range 6 {
			order := slices.Clone(given)
			g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			c := NewCache()
			for len(order) > 0 {
				n := 1 + g.rng.Intn(min(4, len(order)))
				chunk := order[:n]
				order = order[n:]
				joinWrite(t, c, g.rng.Intn(4), chunk)
			}
			var state bytes.Buffer
			if err := c.Save(&state); err != nil {
				t.Fatal(err)
			}
			if perm == 0 {
				want = state.Bytes()
				for key, e := range c.snapshot() {
					if e.Seconds != fastest[key] {
						t.Errorf("seed %d: key %s holds %v s, the fastest given was %v s", seed, key, e.Seconds, fastest[key])
					}
				}
				if c.Len() != len(fastest) {
					t.Errorf("seed %d: %d keys held, %d given", seed, c.Len(), len(fastest))
				}
			} else if !bytes.Equal(state.Bytes(), want) {
				t.Fatalf("seed %d: permutation %d saved other bytes:\n%s\nthan the first:\n%s", seed, perm, state.Bytes(), want)
			}
		}
	}
}

// joinWrite commits entries to c through one ingress: 0 PutEntries, 1 Load,
// 2 RecoverFile's salvage of a torn file, 3 PutTrace.
func joinWrite(t *testing.T, c *Cache, ingress int, entries []CacheEntry) {
	t.Helper()
	switch ingress {
	case 0:
		if err := c.PutEntries(entries); err != nil {
			t.Fatal(err)
		}
	case 1:
		env, err := EncodeEntries(entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(bytes.NewReader(env)); err != nil {
			t.Fatal(err)
		}
	case 2:
		// Every entry whole, the envelope's closing "]}" cut off.
		torn, err := json.Marshal(cacheFile{Version: cacheFormatVersion, Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "state.cache")
		if err := os.WriteFile(path, torn[:len(torn)-2], 0o644); err != nil {
			t.Fatal(err)
		}
		if loaded, salvaged, err := c.RecoverFile(path); err != nil || !salvaged || loaded != len(entries) {
			t.Fatalf("RecoverFile: loaded %d of %d, salvaged %t, err %v", loaded, len(entries), salvaged, err)
		}
	default:
		for _, e := range entries {
			kind, err := ParseKind(e.Kind)
			if err != nil {
				t.Fatal(err)
			}
			c.PutTrace(e.Arch, kind, e.Shape.shape(), traceOf(e))
		}
	}
}

// layerOptimum is the enumerated optimum of layer()'s Direct space and the
// entry that holds it.
func layerOptimum(t *testing.T) (best conv.Config, bestM Measurement, e CacheEntry) {
	t.Helper()
	s := layer()
	mm := NewMemoMeasure(arch, s, Direct)
	bestM = Measurement{Seconds: math.Inf(1)}
	mustSpace(t, true).enumerate(func(c conv.Config) bool {
		if m, ok := mm.Measure(c); ok && m.Seconds < bestM.Seconds {
			best, bestM = c, m
		}
		return true
	})
	return best, bestM, CacheEntry{Arch: arch.Name, Kind: Direct.String(), Shape: shapeToCached(s),
		Config: configToCached(best), Seconds: bestM.Seconds}
}

// A search that misses the cache and then loses its put to a better entry
// that reached the key while it ran — here a replication push of the
// space's optimum — answers the entry the cache holds, while the sweep keeps
// the run's own trace.
func TestSearchAnswersTheEntryItLostTo(t *testing.T) {
	s := layer()
	best, bestM, optimum := layerOptimum(t)
	cache := NewCache()
	var push sync.Once
	var err error
	opts := NetworkOptions{Tune: smallOpts(12, 3)}
	opts.WrapMeasurer = func(_ Kind, _ shapes.ConvShape, measure Measurer) FallibleMeasurer {
		return func(c conv.Config) (Measurement, bool, error) {
			push.Do(func() { err = cache.PutEntries([]CacheEntry{optimum}) })
			m, ok := measure(c)
			return m, ok, nil
		}
	}
	verdicts, searches, terr := TuneNetworkTraces(arch, []NetworkLayer{{Name: "conv", Shape: s, Repeat: 1}}, cache, opts)
	if terr != nil || err != nil {
		t.Fatal(terr, err)
	}
	if len(searches) != 1 || len(searches[0].History) == 0 {
		t.Fatalf("%d searches ran, want 1 with its history", len(searches))
	}
	if run := searches[0].BestM; run.Seconds <= bestM.Seconds {
		t.Fatalf("the run found %v itself, the pushed optimum %v: the race is vacuous", run.Seconds, bestM.Seconds)
	}
	if v := verdicts[0]; v.Config != best || v.M != bestM {
		t.Fatalf("verdict %v at %v, want the held optimum %v at %v", v.Config, v.M, best, bestM)
	}
	if cfg, m, ok := cache.Get(arch.Name, Direct, s); !ok || cfg != best || m != bestM {
		t.Fatalf("cache holds %v at %v, want the optimum %v at %v", cfg, m, best, bestM)
	}
}

// TuneResumed answers the held entry too: after a lost put its trace carries
// the held verdict beside the run's own measurements.
func TestResumedSearchAnswersTheEntryItLostTo(t *testing.T) {
	s := layer()
	best, bestM, optimum := layerOptimum(t)
	cache := NewCache()
	var push sync.Once
	var err error
	plain := NewMemoMeasure(arch, s, Direct).Measure
	measure := func(c conv.Config) (Measurement, bool) {
		push.Do(func() { err = cache.PutEntries([]CacheEntry{optimum}) })
		return plain(c)
	}
	sp := mustSpace(t, true)
	tr, terr := TuneResumed(cache, sp, measure, smallOpts(12, 3))
	if terr != nil || err != nil {
		t.Fatal(terr, err)
	}
	if tr.Best != best || tr.BestM != bestM {
		t.Fatalf("TuneResumed answered %v at %v, want the held optimum %v at %v", tr.Best, tr.BestM, best, bestM)
	}
	if len(tr.History) != 12 || tr.Measurements != 12 {
		t.Fatalf("trace has %d rows over %d measurements, want the run's 12", len(tr.History), tr.Measurements)
	}
	run := math.Inf(1)
	for _, h := range tr.History {
		if h.OK {
			run = min(run, h.M.Seconds)
		}
	}
	if run <= bestM.Seconds {
		t.Fatalf("the run found %v itself, the pushed optimum %v: the race is vacuous", run, bestM.Seconds)
	}
	if cfg, m, ok := cache.Get(arch.Name, Direct, s); !ok || cfg != best || m != bestM {
		t.Fatalf("cache holds %v at %v, want the optimum %v at %v", cfg, m, best, bestM)
	}
}

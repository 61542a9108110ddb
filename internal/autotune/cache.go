package autotune

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
	"repro/internal/tensor"
)

// Cache persists tuning outcomes per (architecture, algorithm, layer shape),
// the way production libraries cache their autotuner's verdicts so repeated
// runs skip the search. Entries round-trip through JSON; the cache is safe
// for concurrent use. The entry map is sharded by key hash so the
// concurrent layer tuners of TuneNetwork don't contend on one lock, and an
// in-flight table deduplicates concurrent tuning of identical keys: when
// two goroutines ask for the same (arch, algorithm, shape) at once, one
// runs the search and the other waits for its verdict.
//
// Beyond the verdict, an entry can carry the search's engine state — the
// full measurement history (PutTrace), which its convergence curve is
// rebuilt from. A state-carrying entry lets a later run resume the search at
// a higher budget without repeating a single measurement (TuneResumed).
// Every verdict, with or without state, seeds TuneNetwork's warm searches
// (Cache.candidates).
type Cache struct {
	shards [cacheShards]cacheShard

	flightMu sync.Mutex
	flight   map[string]*flightCall

	// Eviction/accounting state (see evict.go). policy is nil until
	// SetEviction installs one; the counters run unconditionally — they are
	// a handful of atomics, and the service's /healthz reports them.
	policy    atomic.Pointer[EvictionPolicy]
	clock     atomic.Int64 // logical LRU clock, bumped on every access
	bytes     atomic.Int64 // approximate retained bytes over all entries
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	evictMu   sync.Mutex // serializes enforce sweeps

	// writes counts stores and removals (Writes).
	writes atomic.Uint64
}

const cacheShards = 32

// cacheFormatVersion is the on-disk format written by Save: a versioned
// envelope around the entries, which optionally carry per-entry engine
// state (rows + curve). Every other version — the retired bare-array
// version 1 included — is rejected.
const cacheFormatVersion = 2

type cacheShard struct {
	mu      sync.RWMutex
	entries map[string]CacheEntry
	meta    map[string]*entryMeta
}

// searchOutcome is what one search produced: its verdict, the trace of the
// engine run behind it — nil when the cache answered, which keeps a plain
// hit allocation-light — or the error that ended it. It is the one value
// tuneShared returns, an in-flight run hands its waiters and a network task
// keeps.
type searchOutcome struct {
	cfg   conv.Config
	m     Measurement
	trace *Trace
	err   error
}

// history is the measurement stream of the run behind the outcome, nil when
// no run is in hand.
func (o searchOutcome) history() []MeasuredConfig {
	if o.trace == nil {
		return nil
	}
	return o.trace.History
}

// partial reports a run cut short by its context.
func (o searchOutcome) partial() bool { return o.trace != nil && o.trace.Partial }

// flightCall is one in-progress tuning run other goroutines can wait on.
type flightCall struct {
	done chan struct{}
	searchOutcome
}

// CacheEntry is one persisted tuning outcome. Rows is the optional engine
// state: the measurement stream in submission order, exactly Trace.History.
type CacheEntry struct {
	Arch    string              `json:"arch"`
	Kind    string              `json:"kind"`
	Shape   cachedShape         `json:"shape"`
	Config  cachedConfig        `json:"config"`
	Seconds float64             `json:"seconds"`
	GFLOPS  float64             `json:"gflops"`
	Rows    []CachedMeasurement `json:"rows,omitempty"`
	// Curve is the best-so-far curve, Trace.Curve: a pure function of Rows
	// (curveOf). A cached entry holds none — put drops it — and MarshalJSON
	// fills a nil one from Rows, so it exists only on the wire and on disk.
	Curve []float64 `json:"curve,omitempty"`
	// Budget is the measurement budget the persisted search ran with; it
	// may exceed len(Rows) when the search stopped early on patience. A
	// resume request is covered — nothing to continue — unless it asks for
	// more than this. 0 on entries from older files (resume then falls
	// back to comparing against len(Rows)).
	Budget int `json:"budget,omitempty"`
}

// CachedMeasurement is one persisted measurement record of a search.
type CachedMeasurement struct {
	Config  cachedConfig `json:"config"`
	Seconds float64      `json:"seconds"`
	GFLOPS  float64      `json:"gflops"`
	OK      bool         `json:"ok"`
}

// cacheFile is the version-2 on-disk envelope. Checksum is an optional
// integrity field (added within version 2 so older loaders, which ignore
// unknown fields, still read new files): "crc32c:" plus the hex CRC-32C of
// the compact JSON encoding of Entries. Go's shortest-roundtrip float
// encoding makes decode→re-encode byte-stable, so the loader can recompute
// the sum from the decoded entries without retaining the original bytes.
type cacheFile struct {
	Version  int          `json:"version"`
	Checksum string       `json:"checksum,omitempty"`
	Entries  []CacheEntry `json:"entries"`
}

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// entriesChecksum is the integrity sum Save writes and Load verifies, over
// the compact entries array (entriesJSON).
func entriesChecksum(body []byte) string {
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(body, crc32c))
}

// entriesJSON is the compact JSON array of entries — what
// json.Marshal(entries) writes — marshalled one entry at a time:
// encoding/json pools the buffer of every Marshal, so marshalling a whole
// envelope at once would leave the pool holding a copy of it after the GC.
func entriesJSON(entries []CacheEntry) ([]byte, error) {
	if entries == nil {
		return []byte("null"), nil
	}
	dst := []byte{'['}
	for i, e := range entries {
		b, err := e.MarshalJSON()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, b...)
	}
	return append(dst, ']'), nil
}

// MarshalJSON writes the entry with its best-so-far curve, rebuilt from Rows
// when the entry holds none: the one hook behind every writer of entries
// (Save, EncodeEntries, the checksum, the daemon's handoff sidecar).
func (e CacheEntry) MarshalJSON() ([]byte, error) {
	if e.Curve == nil {
		e.Curve = curveOf(e.history())
	}
	type plain CacheEntry // plain's method set is empty: no recursion
	return json.Marshal(plain(e))
}

// curveOf rebuilds a search's best-so-far curve from its history exactly as
// record.add grows Trace.Curve: the incumbent's GFLOP/s after each
// measurement, 0 before the first successful one.
func curveOf(hist []MeasuredConfig) (curve []float64) {
	found, best, cfg := false, Measurement{}, conv.Config{}
	for _, h := range hist {
		if h.OK && (!found || incumbentBefore(h.M.Seconds, h.Config, best.Seconds, cfg)) {
			found, best, cfg = true, h.M, h.Config
		}
		curve = append(curve, best.GFLOPS)
	}
	return curve
}

// cachedShape / cachedConfig mirror the internal structs with stable JSON
// field names, decoupling the file format from internal refactors.
type cachedShape struct {
	Batch, Cin, Hin, Win, Cout, Hker, Wker, Stride, Pad int
	// Groups is 0 on entries from files written before grouped convolutions
	// existed; the zero value means dense (1 group), so old files load
	// unchanged.
	Groups int
}

// cachedConfig's fields are as narrow as the space allows: a tile dim is at
// most Sb, Sb at most Arch.MaxSharedPerBlock (12 288 floats on the widest
// catalog arch) and a thread dim at most 1024, so the axes and Sb are int16
// and the layout and Winograd edge int8. A row of engine state is then 40
// bytes (rowBytes). A persisted value past its field's width fails to decode.
type cachedConfig struct {
	TileX, TileY, TileZ          int16
	ThreadsX, ThreadsY, ThreadsZ int16
	SharedPerBlock               int16
	Layout                       int8
	WinogradE                    int8
}

func shapeToCached(s shapes.ConvShape) cachedShape {
	return cachedShape{s.Batch, s.Cin, s.Hin, s.Win, s.Cout, s.Hker, s.Wker, s.Strid, s.Pad, s.Groups}
}

func (cs cachedShape) shape() shapes.ConvShape {
	return shapes.ConvShape{
		Batch: cs.Batch, Cin: cs.Cin, Hin: cs.Hin, Win: cs.Win,
		Cout: cs.Cout, Hker: cs.Hker, Wker: cs.Wker,
		Strid: cs.Stride, Pad: cs.Pad, Groups: cs.Groups,
	}
}

// configToCached panics on a config that does not fit the narrowed fields:
// a wrapped value would persist a different config.
func configToCached(c conv.Config) cachedConfig {
	cc := cachedConfig{int16(c.TileX), int16(c.TileY), int16(c.TileZ),
		int16(c.ThreadsX), int16(c.ThreadsY), int16(c.ThreadsZ),
		int16(c.SharedPerBlock), int8(c.Layout), int8(c.WinogradE)}
	if cc.config() != c {
		panic(fmt.Sprintf("autotune: config %+v does not fit a cached row", c))
	}
	return cc
}

func (cc cachedConfig) config() conv.Config {
	return conv.Config{
		TileX: int(cc.TileX), TileY: int(cc.TileY), TileZ: int(cc.TileZ),
		ThreadsX: int(cc.ThreadsX), ThreadsY: int(cc.ThreadsY), ThreadsZ: int(cc.ThreadsZ),
		SharedPerBlock: int(cc.SharedPerBlock),
		Layout:         tensor.Layout(cc.Layout),
		WinogradE:      int(cc.WinogradE),
	}
}

// check rejects a persisted config the engine would panic on: a tile or
// thread dimension below 1 (clampFactor and the schedule emitter divide by
// them) or a tile edge the kind has no axis for (snap reads an empty axis).
func (cc cachedConfig) check(kind Kind) error {
	if min(cc.TileX, cc.TileY, cc.TileZ, cc.ThreadsX, cc.ThreadsY, cc.ThreadsZ) < 1 {
		return fmt.Errorf("config %+v has a tile or thread dimension below 1", cc)
	}
	if !slices.Contains(kind.spec().edges, int(cc.WinogradE)) {
		return fmt.Errorf("config tile edge %d is not one of %s's %v", cc.WinogradE, kind, kind.spec().edges)
	}
	return nil
}

// verdict is the entry's tuning outcome in the engine's types.
func (e CacheEntry) verdict() (conv.Config, Measurement) {
	return e.Config.config(), Measurement{Seconds: e.Seconds, GFLOPS: e.GFLOPS}
}

// history decodes an entry's persisted rows into the engine's record type.
func (e CacheEntry) history() []MeasuredConfig {
	if len(e.Rows) == 0 {
		return nil
	}
	hist := make([]MeasuredConfig, len(e.Rows))
	for i, r := range e.Rows {
		hist[i] = MeasuredConfig{Config: r.Config.config(),
			M: Measurement{Seconds: r.Seconds, GFLOPS: r.GFLOPS}, OK: r.OK}
	}
	return hist
}

// kindFromString parses a persisted algorithm name, rejecting anything
// unrecognized: a corrupt or future-format cache file must fail loudly
// instead of silently poisoning verdicts as Direct.
func kindFromString(s string) (Kind, error) {
	k, err := ParseKind(s)
	if err != nil {
		return Direct, fmt.Errorf("autotune: unknown cache kind %q", s)
	}
	return k, nil
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	c := &Cache{flight: make(map[string]*flightCall)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]CacheEntry)
		c.shards[i].meta = make(map[string]*entryMeta)
	}
	return c
}

// cacheKeyBuf comfortably holds any key: an arch name, a kind name and
// ten small integers.
const cacheKeyBuf = 96

// appendCacheKey builds the cache key of (arch, kind, shape) into dst with
// strconv appends — no fmt, no intermediate allocations. It is the hot
// half of every cache lookup and in-flight check: callers on the lookup
// path keep the bytes on the stack and index the shard maps with
// string(key) directly, which Go compiles to an allocation-free lookup.
func appendCacheKey(dst []byte, archName string, kind Kind, s shapes.ConvShape) []byte {
	dst = append(dst, archName...)
	dst = append(dst, '|')
	dst = append(dst, kind.String()...)
	for _, v := range [...]int{s.Batch, s.Cin, s.Hin, s.Win, s.Cout, s.Hker, s.Wker, s.Strid, s.Pad, s.G()} {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// cacheKey is appendCacheKey as a string, for the cold paths (stores,
// flight-table inserts) that need a retained key.
func cacheKey(archName string, kind Kind, s shapes.ConvShape) string {
	var kb [cacheKeyBuf]byte
	return string(appendCacheKey(kb[:0], archName, kind, s))
}

// shardIndex picks the shard of a key (FNV-1a). Generic over the key
// representation so the byte-slice lookup path and the string store path
// share one implementation — they must address the same shard for the
// same key bytes.
func shardIndex[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % cacheShards
}

func (c *Cache) shardFor(key string) *cacheShard {
	return &c.shards[shardIndex(key)]
}

// put is the one store behind every writer. It keeps the entry the key holds
// unless e supersedes it; a rejected put moves no counter, recency or TTL. It
// returns the entry the key holds after the put. sp is e's own space where
// the writer has it at hand (the engine's put), or nil: a put that stores
// computes the entry's floor ratio from it, once.
func (c *Cache) put(key string, e CacheEntry, sp *Space) CacheEntry {
	sh := c.shardFor(key)
	sh.mu.Lock()
	old, held := sh.entries[key]
	if held && !e.Supersedes(old) {
		sh.mu.Unlock()
		return old
	}
	e.Curve = nil // derived from Rows; MarshalJSON rebuilds it
	if cap(e.Rows) > len(e.Rows) {
		// Hold rows at their length: a decoded slice carries growth slack
		// that the size model would not count.
		e.Rows = append(make([]CachedMeasurement, 0, len(e.Rows)), e.Rows...)
	}
	size := e.SizeBytes()
	m := &entryMeta{size: size, ratio: floorRatio(e, sp)}
	m.used.Store(c.clock.Add(1))
	m.wall.Store(c.nowNanos())
	if held {
		c.bytes.Add(-sh.meta[key].size)
	}
	sh.entries[key] = e
	sh.meta[key] = m
	sh.mu.Unlock()
	c.writes.Add(1)
	c.bytes.Add(size)
	c.enforce()
	return e
}

// floorRatio is e's verdict seconds over the verdict's tight floor in its
// own space sp, built from the entry when nil (catalog architectures only),
// or 0 where there is no such space or the floor is not positive and finite.
func floorRatio(e CacheEntry, sp *Space) float64 {
	if sp == nil {
		arch, aerr := memsim.ByName(e.Arch)
		kind, kerr := kindFromString(e.Kind)
		if aerr != nil || kerr != nil || e.Shape.oversized() {
			return 0
		}
		var err error
		if sp, err = NewSpace(e.Shape.shape(), arch, kind, 0, true); err != nil {
			return 0
		}
	}
	f := sp.analyticFloor(e.Config.config())
	if !(f > 0) || math.IsInf(f, 1) {
		return 0
	}
	return e.Seconds / f
}

// ratioMaxDim bounds the entry shapes the cache builds a space for, as the
// wire bounds a request's (repro.MaxLayerDim): nothing else bounds an entry,
// and a space lists its axes' divisors in time linear in their length.
const ratioMaxDim = 1 << 16

// oversized reports whether a dimension of cs exceeds ratioMaxDim.
func (cs cachedShape) oversized() bool {
	return max(cs.Batch, cs.Cin, cs.Hin, cs.Win, cs.Cout, cs.Hker, cs.Wker, cs.Stride, cs.Pad, cs.Groups) > ratioMaxDim
}

// Supersedes reports whether e replaces old, an entry of the same key, in a
// cache or a handoff queue. It compares, in turn: the verdict by the engine's
// incumbent rule; more rows (a resumed search's rows extend the entry it
// resumed, even when a deadline cut its budget); the higher covered budget;
// every other field the entry encodes but its curve. Two entries tie only
// when they encode alike, so a set of entries has one survivor in any order.
func (e CacheEntry) Supersedes(old CacheEntry) bool {
	switch ec, oc := e.Config.config(), old.Config.config(); {
	case incumbentBefore(e.Seconds, ec, old.Seconds, oc):
		return true
	case incumbentBefore(old.Seconds, oc, e.Seconds, ec):
		return false
	}
	return cmp.Or(
		cmp.Compare(len(old.Rows), len(e.Rows)),
		cmp.Compare(old.coveredBudget(), e.coveredBudget()),
		// The key fixes every other field but Groups, 0 or 1.
		cmp.Compare(e.Shape.Groups, old.Shape.Groups),
		cmp.Compare(e.Budget, old.Budget),
		cmp.Compare(math.Float64bits(e.GFLOPS), math.Float64bits(old.GFLOPS)),
		slices.CompareFunc(e.Rows, old.Rows, CachedMeasurement.compare),
	) < 0
}

// compare orders rows over every field they encode, floats by their bits.
func (r CachedMeasurement) compare(o CachedMeasurement) int {
	switch {
	case r.Config != o.Config && configLess(r.Config.config(), o.Config.config()):
		return -1
	case r.Config != o.Config:
		return 1
	case r.OK != o.OK && o.OK:
		return -1
	case r.OK != o.OK:
		return 1
	}
	return cmp.Or(cmp.Compare(math.Float64bits(r.Seconds), math.Float64bits(o.Seconds)),
		cmp.Compare(math.Float64bits(r.GFLOPS), math.Float64bits(o.GFLOPS)))
}

// Entry is the allocation-free raw lookup behind Get and State, and what
// callers shipping entries elsewhere (the cluster replication path) read:
// the persisted entry of one key, engine state included when present. A hit
// bumps the entry's LRU clock; under a TTL policy an entry idle past the
// TTL is evicted and reported as a miss, so a long-running service never
// serves verdicts staler than its policy allows.
func (c *Cache) Entry(archName string, kind Kind, s shapes.ConvShape) (CacheEntry, bool) {
	return c.lookup(archName, kind, s, true)
}

// lookup is Entry, which books the lookup; unbooked, it moves nothing — no
// counter, LRU clock or TTL stamp — and an entry idle past the TTL reads as
// absent and stays.
func (c *Cache) lookup(archName string, kind Kind, s shapes.ConvShape, book bool) (CacheEntry, bool) {
	var kb [cacheKeyBuf]byte
	key := appendCacheKey(kb[:0], archName, kind, s)
	sh := &c.shards[shardIndex(key)]
	// The eviction bookkeeping (recency clock, TTL stamp) is paid only
	// when a policy is installed; the default unbounded cache keeps the
	// bare map-hit lookup, plus one counter bump for Stats.
	p := c.policy.Load()
	sh.mu.RLock()
	e, ok := sh.entries[string(key)]
	var m *entryMeta
	if ok && p != nil {
		m = sh.meta[string(key)]
	}
	sh.mu.RUnlock()
	expired := ok && m != nil && p.TTL > 0 && p.now().UnixNano()-m.wall.Load() > int64(p.TTL)
	switch {
	case !book:
		return e, ok && !expired
	case expired:
		c.remove(string(key))
		fallthrough
	case !ok:
		c.misses.Add(1)
		return CacheEntry{}, false
	}
	if m != nil {
		m.used.Store(c.clock.Add(1))
		// The wall clock backs the TTL only; without one, skip the
		// time.Now so the hot lookup stays a pair of atomic bumps.
		if p.TTL > 0 {
			m.wall.Store(p.now().UnixNano())
		}
	}
	c.hits.Add(1)
	return e, true
}

// Put stores a verdict-only tuning outcome.
func (c *Cache) Put(archName string, kind Kind, s shapes.ConvShape, cfg conv.Config, m Measurement) {
	c.put(cacheKey(archName, kind, s), CacheEntry{
		Arch: archName, Kind: kind.String(),
		Shape:   shapeToCached(s),
		Config:  configToCached(cfg),
		Seconds: m.Seconds, GFLOPS: m.GFLOPS,
	}, nil)
}

// PutTrace stores a tuning outcome together with its engine state: the
// full measurement history. A state-carrying entry can be resumed at a
// higher budget (TuneResumed); like every verdict, it seeds TuneNetwork's
// warm searches.
func (c *Cache) PutTrace(archName string, kind Kind, s shapes.ConvShape, tr *Trace) {
	c.put(cacheKey(archName, kind, s), traceEntry(archName, kind, s, tr), nil)
}

// traceEntry is the state-carrying entry of a tuning outcome.
func traceEntry(archName string, kind Kind, s shapes.ConvShape, tr *Trace) CacheEntry {
	e := CacheEntry{
		Arch: archName, Kind: kind.String(),
		Shape:   shapeToCached(s),
		Config:  configToCached(tr.Best),
		Seconds: tr.BestM.Seconds, GFLOPS: tr.BestM.GFLOPS,
		Budget: tr.Budget,
	}
	if e.Budget < len(tr.History) {
		e.Budget = len(tr.History)
	}
	if len(tr.History) > 0 {
		e.Rows = make([]CachedMeasurement, len(tr.History))
		for i, h := range tr.History {
			e.Rows[i] = CachedMeasurement{Config: configToCached(h.Config),
				Seconds: h.M.Seconds, GFLOPS: h.M.GFLOPS, OK: h.OK}
		}
	}
	return e
}

// Get retrieves a cached outcome, if any. The lookup allocates nothing.
func (c *Cache) Get(archName string, kind Kind, s shapes.ConvShape) (conv.Config, Measurement, bool) {
	e, ok := c.Entry(archName, kind, s)
	if !ok {
		return conv.Config{}, Measurement{}, false
	}
	cfg, m := e.verdict()
	return cfg, m, true
}

// State retrieves a cached entry's persisted engine state: the measurement
// history and the convergence curve rebuilt from it. ok is false when the key is absent or the
// entry is verdict-only.
func (c *Cache) State(archName string, kind Kind, s shapes.ConvShape) ([]MeasuredConfig, []float64, bool) {
	e, ok := c.Entry(archName, kind, s)
	if !ok || len(e.Rows) == 0 {
		return nil, nil, false
	}
	hist := e.history()
	return hist, curveOf(hist), true
}

// stateEntries returns the state-carrying entries of one architecture with
// no dimension past ratioMaxDim, in deterministic (key-sorted) order — the
// rows the analytic calibration fits on (AnalyticDSE.Calibrate).
func (c *Cache) stateEntries(archName string) []CacheEntry {
	return c.sortedEntries(func(e CacheEntry) bool {
		return e.Arch == archName && len(e.Rows) > 0 && !e.Shape.oversized()
	})
}

// candidates returns the verdicts of (arch, kind) a warm search ranks
// (seedsFor), each scored by the floor ratio put stored for it, or under
// noPrune by its seconds; without noPrune an entry with no ratio is left out.
// It builds no space. Its order is the shards' map order: seedsFor ranks by a
// total order, so its seeds depend on the entry set alone.
func (c *Cache) candidates(archName string, kind Kind, noPrune bool) []scored {
	name := kind.String()
	var out []scored
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if r := sh.meta[k].ratio; e.Arch == archName && e.Kind == name && (r > 0 || noPrune) {
				if noPrune {
					r = e.Seconds
				}
				out = append(out, scored{e.Config.config(), r})
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// StateSize reports how many measurements are persisted for a key,
// without decoding them (0 when the key is absent or verdict-only).
func (c *Cache) StateSize(archName string, kind Kind, s shapes.ConvShape) int {
	e, ok := c.Entry(archName, kind, s)
	if !ok {
		return 0
	}
	return len(e.Rows)
}

// Writes reports how many entries have been stored or removed since the
// cache was made: every Put, PutTrace, PutEntries, Load and salvage entry or
// engine commit that stores (not one the held entry outranks), eviction and
// expiry moves it, once the write is visible to readers. A derived value
// stamped with it — the daemon's analytic calibration — is current while it
// reads the same.
func (c *Cache) Writes() uint64 { return c.writes.Load() }

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// sortedEntries copies the entries keep admits, in deterministic
// (key-sorted) order. keep runs under a shard's read lock; only the entries
// it admits are copied.
func (c *Cache) sortedEntries(keep func(CacheEntry) bool) []CacheEntry {
	type keyed struct {
		key string
		e   CacheEntry
	}
	var kept []keyed
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if keep(e) {
				kept = append(kept, keyed{k, e})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(kept, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]CacheEntry, len(kept))
	for i, k := range kept {
		out[i] = k.e
	}
	return out
}

// Save writes the cache as deterministic (key-sorted) JSON in the current
// (version 2) envelope, engine state included where present, with a
// CRC-32C integrity checksum over the entries so a loader can tell torn or
// bit-rotted state from a healthy file.
func (c *Cache) Save(w io.Writer) error {
	env, err := EncodeEntries(c.sortedEntries(func(CacheEntry) bool { return true }))
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, env, "", "  "); err != nil {
		return err
	}
	_, err = w.Write(append(out.Bytes(), '\n'))
	return err
}

// decodeEnvelope is the one decode side: unmarshal, version check, checksum
// verification, then every entry's invariants. It returns the entries with
// their cache keys and commits nothing — the first invalid entry rejects the
// whole envelope, so a caller that commits afterwards is all-or-nothing.
func decodeEnvelope(data []byte) ([]CacheEntry, []string, error) {
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("autotune: cache decode: %w", err)
	}
	if f.Version != cacheFormatVersion {
		return nil, nil, fmt.Errorf("autotune: unsupported cache format version %d (want %d)", f.Version, cacheFormatVersion)
	}
	if f.Checksum != "" {
		// Files from pre-checksum writers carry no sum and load as before; a
		// present sum must verify.
		body, err := entriesJSON(f.Entries)
		if err != nil {
			return nil, nil, fmt.Errorf("autotune: cache checksum: %w", err)
		}
		if sum := entriesChecksum(body); sum != f.Checksum {
			return nil, nil, fmt.Errorf("autotune: cache checksum mismatch: file says %s, entries sum to %s", f.Checksum, sum)
		}
	}
	keys, err := validateEntries(f.Entries)
	if err != nil {
		return nil, nil, err
	}
	return f.Entries, keys, nil
}

// validateEntries checks every entry before any is committed — a rejected
// batch must leave the cache untouched, not partially populated — and
// returns their cache keys.
func validateEntries(entries []CacheEntry) ([]string, error) {
	keys := make([]string, len(entries))
	for i, e := range entries {
		key, err := e.Key()
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// commit stores validated entries under their keys.
func (c *Cache) commit(entries []CacheEntry, keys []string) {
	for i, e := range entries {
		c.put(keys[i], e, nil)
	}
}

// Load merges entries from JSON previously written by Save. Entries with an
// invalid shape or an unrecognized algorithm kind are rejected with an
// error — a corrupt or future-format file must not silently poison
// verdicts.
func (c *Cache) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("autotune: cache read: %w", err)
	}
	entries, keys, err := decodeEnvelope(data)
	if err != nil {
		return err
	}
	c.commit(entries, keys)
	return nil
}

// Key checks one entry's invariants — the per-entry half of Load's checks,
// shared with the salvage path — and returns its cache key: an entry whose
// Key succeeds is safe to merge into any cache.
func (e CacheEntry) Key() (string, error) {
	s := e.Shape.shape()
	if err := s.Validate(); err != nil {
		return "", fmt.Errorf("autotune: cache entry for %s: %w", e.Arch, err)
	}
	kind, err := kindFromString(e.Kind)
	if err != nil {
		return "", fmt.Errorf("autotune: cache entry for %s %v: %w", e.Arch, s, err)
	}
	if err := e.Config.check(kind); err != nil {
		return "", fmt.Errorf("autotune: cache entry for %s %v: verdict: %w", e.Arch, s, err)
	}
	// A verdict outranks every slower one: a time of 0 would hold its key.
	if !(e.Seconds > 0) || math.IsInf(e.Seconds, 1) {
		return "", fmt.Errorf("autotune: cache entry for %s %v: verdict seconds %v not positive and finite", e.Arch, s, e.Seconds)
	}
	// Persisted rows feed resumed incumbents and cost-model log-costs; a
	// successful row with a non-positive time would poison both (a zero
	// incumbent prunes everything, log(0) is -Inf), so reject it here. Only
	// a row's Sb must be positive: featurizing divides by it.
	for j, r := range e.Rows {
		if err := r.Config.check(kind); err != nil {
			return "", fmt.Errorf("autotune: cache entry for %s %v: row %d: %w", e.Arch, s, j, err)
		}
		if r.Config.SharedPerBlock < 1 {
			return "", fmt.Errorf("autotune: cache entry for %s %v: row %d: Sb %d below 1", e.Arch, s, j, r.Config.SharedPerBlock)
		}
		if r.OK && !(r.Seconds > 0) {
			return "", fmt.Errorf("autotune: cache entry for %s %v: row %d: non-positive seconds %v on a successful measurement", e.Arch, s, j, r.Seconds)
		}
	}
	return cacheKey(e.Arch, kind, s), nil
}

// EncodeEntries wraps entries in the versioned, checksummed on-disk/wire
// envelope — the exact format Save writes, reused as the replication and
// hinted-handoff payload between cluster replicas so both sides share one
// hardened (fuzzed) decoder.
// It is the one encode side of the envelope codec, byte for byte what
// json.Marshal of a cacheFile writes; Save indents it.
func EncodeEntries(entries []CacheEntry) ([]byte, error) {
	body, err := entriesJSON(entries)
	if err != nil {
		return nil, err
	}
	out := fmt.Appendf(make([]byte, 0, len(body)+64), `{"version":%d,"checksum":"%s","entries":`,
		cacheFormatVersion, entriesChecksum(body))
	return append(append(out, body...), '}'), nil
}

// DecodeEntries decodes an envelope produced by EncodeEntries (or Save),
// verifying version, checksum and every entry's invariants, without
// committing anything to a cache. The first invalid entry rejects the whole
// envelope — replication payloads are all-or-nothing, like Load.
func DecodeEntries(data []byte) ([]CacheEntry, error) {
	entries, _, err := decodeEnvelope(data)
	return entries, err
}

// PutEntries validates entries and merges them all — the receiving half of
// cluster replication. Like Load, a rejected entry leaves the cache
// untouched rather than partially updated.
func (c *Cache) PutEntries(entries []CacheEntry) error {
	keys, err := validateEntries(entries)
	if err != nil {
		return err
	}
	c.commit(entries, keys)
	return nil
}

// AtomicWriteFile replaces path with whatever write produces, atomically:
// the bytes go to a temp file in the same directory, are fsynced, then the
// temp file is renamed over path. A crash at any point leaves either the
// previous complete file or the new complete file — never a torn one. It is
// the one crash-safe writer behind every state file: the cache snapshot and
// the daemon's handoff and refinement-backlog sidecars.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// SaveFile writes the cache to path through AtomicWriteFile, which is what
// makes the daemon's timed background snapshots safe to take while serving
// traffic.
func (c *Cache) SaveFile(path string) error { return AtomicWriteFile(path, c.Save) }

// LoadFile merges a cache file into c.
func (c *Cache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Load(f)
}

// RecoverFile is the crash-tolerant LoadFile the daemon boots with. A
// healthy file loads normally. A damaged one — torn mid-write by a crash,
// truncated, or failing its checksum — is salvaged instead of rejected:
// every individually-valid entry that can still be decoded from the prefix
// is merged into the cache, and the damaged file is renamed to
// path+".corrupt" (preserved for post-mortem, and out of the way so the
// next snapshot starts clean). loaded is how many entries made it in;
// salvaged reports that the salvage path ran. A missing file is not an
// error: (0, false, nil) — a fresh daemon starts empty.
func (c *Cache) RecoverFile(path string) (loaded int, salvaged bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if entries, keys, err := decodeEnvelope(data); err == nil {
		c.commit(entries, keys)
		return len(entries), false, nil
	}
	for _, e := range salvageEntries(data) {
		if key, verr := e.Key(); verr == nil {
			c.put(key, e, nil)
			loaded++
		}
	}
	return loaded, true, os.Rename(path, path+".corrupt")
}

// salvageEntries decodes as many whole entries as possible from a damaged
// cache file: it token-walks to the envelope's entries array and decodes
// entry by entry until the corruption point. An entry that is well-formed
// JSON but does not fit the entry type (a string where a number belongs, a
// config value past its field's width) is skipped: the decoder consumed it
// whole, so the entries after it still decode. Per-entry validation is the
// caller's job — a torn tail can truncate an entry into something that still
// parses.
func salvageEntries(data []byte) []CacheEntry {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil
	}
	for {
		if !dec.More() {
			return nil
		}
		keyTok, err := dec.Token()
		if err != nil {
			return nil
		}
		if key, _ := keyTok.(string); key == "entries" {
			break
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return nil
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return nil
	}
	var out []CacheEntry
	for dec.More() {
		var e CacheEntry
		var typeErr *json.UnmarshalTypeError
		if err := dec.Decode(&e); errors.As(err, &typeErr) {
			continue
		} else if err != nil {
			break
		}
		out = append(out, e)
	}
	return out
}

// TuneCached returns the cached best for (arch, kind, shape) or runs the
// engine and caches its verdict (with engine state, so the search can be
// resumed or transferred from later). Concurrent callers with the same key
// share one search.
func TuneCached(cache *Cache, sp *Space, measure Measurer, opts Options) (conv.Config, Measurement, error) {
	out, _ := tuneShared(context.Background(), cache, sp, LiftMeasurer(measure), opts, false)
	return out.cfg, out.m, out.err
}

// TuneResumed continues a cached search at a higher budget: the persisted
// measurement history replays into a fresh engine run — zero measurements
// are repeated — and the grown state is written back. A covered request
// returns the cached outcome as a synthesized trace without any
// measuring: the persisted search already ran with at least opts.Budget
// (even if patience retired it below that, re-running would only re-prove
// staleness), or the entry is verdict-only with nothing to continue from.
// Concurrent calls for one key share one run and its trace, which they
// must treat as read-only. A run answers the entry the cache holds after
// it, as TuneCached does: when a better entry reached the key while it ran,
// the trace returned is a copy of the run's with that entry's verdict.
func TuneResumed(cache *Cache, sp *Space, measure Measurer, opts Options) (*Trace, error) {
	out, _ := tuneShared(context.Background(), cache, sp, LiftMeasurer(measure), opts, true)
	if out.err != nil {
		return nil, out.err
	}
	if out.trace != nil {
		tr := *out.trace
		tr.Best, tr.BestM = out.cfg, out.m
		return &tr, nil
	}
	tr := &Trace{Method: "ate", Best: out.cfg, BestM: out.m}
	// The entry that covered the request carries the rest; only an eviction
	// since tuneShared read it leaves the bare verdict.
	if e, ok := cache.Entry(sp.Arch.Name, sp.Kind, sp.Shape); ok {
		tr.History = e.history()
		tr.Curve = curveOf(tr.History)
		tr.Measurements, tr.Budget = len(e.Rows), e.Budget
		tr.ConvergedAt = convergedAt(tr.Curve)
	}
	return tr, nil
}

// Covered is the one coverage predicate: does the cache alone answer a
// search of (arch, kind, shape) at budget? It returns the entry found (zero
// when the key is absent) and the measurements the search may still spend —
// 0 when covered; the whole budget when the key is absent; with resume, the
// budget beyond what a state-carrying entry persisted, which is what the
// search then resumes for. Every search asks it before measuring
// (tuneShared), the network probe asks it for each search of a request
// (CachedNetwork), and the service's admission accounting sums it, so the
// three cannot disagree on whether a request will measure.
func (c *Cache) Covered(archName string, kind Kind, s shapes.ConvShape, budget int, resume bool) (CacheEntry, int) {
	e, ok := c.Entry(archName, kind, s)
	return e, uncovered(e, ok, budget, resume)
}

// uncovered is Covered's answer over one Entry lookup's result.
func uncovered(e CacheEntry, ok bool, budget int, resume bool) int {
	budget = max(budget, 1) // Options.normalized's floor
	switch {
	case !ok:
		return budget
	case resume:
		return resumeRemaining(e, budget)
	}
	return 0
}

// Holds reports whether the cache still covers q at budget with the verdict
// a probe read there: Covered's predicate over a lookup that books nothing
// (a replay that answers books it afterwards, Book), so under resume an
// entry rewritten below budget no longer holds, whatever its verdict.
func (c *Cache) Holds(archName string, q *CoveredSearch, budget int, resume bool) bool {
	e, ok := c.lookup(archName, q.Kind, q.Shape, false)
	cfg, m := e.verdict()
	return uncovered(e, ok, budget, resume) == 0 && cfg == q.Config && m == q.M
}

// Misses reports whether a probe still misses q at budget: Covered's
// predicate over an unbooked lookup, as Holds asks it of a covered search.
func (c *Cache) Misses(archName string, q *Search, budget int, resume bool) bool {
	e, ok := c.lookup(archName, q.Kind, q.Shape, false)
	return uncovered(e, ok, budget, resume) > 0
}

// Book books the lookups of a probe trajectory qs as the probe's Entry calls
// did. With no eviction policy a held entry's lookup moves only the hit
// count, so a covered search books just that.
func (c *Cache) Book(archName string, qs []CoveredSearch) {
	plain, hits := c.policy.Load() == nil, 0
	for i := range qs {
		if plain && qs[i].M != (Measurement{}) {
			hits++
		} else {
			c.Entry(archName, qs[i].Kind, qs[i].Shape)
		}
	}
	c.hits.Add(int64(hits))
}

// resumeRemaining is the resume half of the predicate: a cached entry
// covers a resume request at budget when the persisted search already ran
// with at least that budget — even if patience stopped it early — or when
// the entry is verdict-only, leaving nothing to continue from.
func resumeRemaining(e CacheEntry, budget int) int {
	if len(e.Rows) == 0 {
		return 0
	}
	return max(budget-e.coveredBudget(), 0)
}

// coveredBudget is the budget the persisted search ran with. Entries from
// older files carry none; their rows stand in.
func (e CacheEntry) coveredBudget() int { return max(e.Budget, len(e.Rows)) }

// withHistory installs a persisted measurement history as the warm-start
// replay on a copy of the caller's warm start. The copy keeps the
// transferred seeds, which the resumed search measures unless its history
// already holds them.
func withHistory(opts Options, hist []MeasuredConfig) Options {
	w := warmStart{}
	if opts.warm != nil {
		w = *opts.warm
	}
	w.History = hist
	opts.warm = &w
	return opts
}

// convergedAt recovers the 1-based index of the last improvement from a
// best-so-far curve. The curve holds the incumbent's GFLOP/s, and the
// incumbent is chosen by seconds: where a kind's flop count depends on the
// configuration (Winograd's tile edge), a faster incumbent can lower the
// curve — so any move marks an improvement, not only a rise.
func convergedAt(curve []float64) int {
	at := 0
	for i, v := range curve {
		if i == 0 || v != curve[i-1] {
			at = i + 1
		}
	}
	return at
}

// tuneShared is the work-sharing core of TuneCached, TuneResumed and
// TuneNetwork: satisfy the request from the cache, join an identical
// in-flight search, or run the engine and persist the trace. shared reports
// whether the outcome came without running a search here; joined waiters
// inherit the run's trace along with its verdict. With resume set, a
// state-carrying cache entry whose history is shorter than opts.Budget
// re-enters the engine warm instead of short-circuiting — the one place a
// persisted history is replayed. A search cut short by ctx still persists
// its trace — at its honest budget — so a repeat resume request continues
// it. A run whose put loses to an entry that arrived for its key meanwhile
// answers that entry's verdict, it and its waiters alike, and keeps its own
// trace.
func tuneShared(ctx context.Context, cache *Cache, sp *Space, measure FallibleMeasurer, opts Options, resume bool) (out searchOutcome, shared bool) {
	opts = opts.normalized()
	// satisfied asks the coverage predicate. The persisted rows are decoded
	// only on the resume path (where they feed the replay); a plain hit stays
	// allocation-light and carries no trace — warm searches read the cache's
	// verdicts directly (Cache.candidates), not this seam.
	var resumeHist []MeasuredConfig
	satisfied := func() bool {
		e, remaining := cache.Covered(sp.Arch.Name, sp.Kind, sp.Shape, opts.Budget, resume)
		if remaining > 0 {
			resumeHist = e.history()
			return false
		}
		out.cfg, out.m = e.verdict()
		return true
	}
	if satisfied() {
		return out, true
	}
	key := cacheKey(sp.Arch.Name, sp.Kind, sp.Shape)
	cache.flightMu.Lock()
	if call, ok := cache.flight[key]; ok {
		cache.flightMu.Unlock()
		<-call.done
		return call.searchOutcome, true
	}
	// Re-check under the flight lock: a racing search may have completed —
	// Put then delete its flight entry — between the check above and here.
	if satisfied() {
		cache.flightMu.Unlock()
		return out, true
	}
	call := &flightCall{done: make(chan struct{})}
	cache.flight[key] = call
	cache.flightMu.Unlock()

	if len(resumeHist) > 0 {
		opts = withHistory(opts, resumeHist)
	}
	tr, err := TuneFallible(ctx, sp, measure, opts)
	if err == nil {
		// A better entry may have reached the key while the search ran (a
		// replication push): the put keeps it, and the run answers it too.
		held := cache.put(key, traceEntry(sp.Arch.Name, sp.Kind, sp.Shape, tr), sp)
		call.searchOutcome = searchOutcome{trace: tr}
		call.cfg, call.m = held.verdict()
	}
	call.err = err
	close(call.done)
	cache.flightMu.Lock()
	delete(cache.flight, key)
	cache.flightMu.Unlock()
	return call.searchOutcome, false
}

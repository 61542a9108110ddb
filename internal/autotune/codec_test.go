package autotune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// The cache holds an entry's rows in int16/int8 fields and writes the
// envelope entry by entry; none of that may move a byte it writes. The
// reference here is a plain encoder, kept as test code: entries with int
// config fields built straight from the engine's trace, marshalled whole by
// encoding/json.

type legacyConfig struct {
	TileX, TileY, TileZ          int
	ThreadsX, ThreadsY, ThreadsZ int
	SharedPerBlock               int
	Layout                       int
	WinogradE                    int
}

type legacyRow struct {
	Config  legacyConfig `json:"config"`
	Seconds float64      `json:"seconds"`
	OK      bool         `json:"ok"`
}

type legacyEntry struct {
	Arch    string       `json:"arch"`
	Kind    string       `json:"kind"`
	Shape   cachedShape  `json:"shape"`
	Config  legacyConfig `json:"config"`
	Seconds float64      `json:"seconds"`
	Rows    []legacyRow  `json:"rows,omitempty"`
	Budget  int          `json:"budget,omitempty"`
}

type legacyFile struct {
	Version  int           `json:"version"`
	Checksum string        `json:"checksum,omitempty"`
	Entries  []legacyEntry `json:"entries"`
}

func legacyConfigOf(c conv.Config) legacyConfig {
	return legacyConfig{c.TileX, c.TileY, c.TileZ, c.ThreadsX, c.ThreadsY, c.ThreadsZ,
		c.SharedPerBlock, int(c.Layout), c.WinogradE}
}

// legacyEntryOf is what PutTrace stores for a trace.
func legacyEntryOf(archName string, kind Kind, s shapes.ConvShape, tr *Trace) legacyEntry {
	e := legacyEntry{Arch: archName, Kind: kind.String(), Shape: shapeToCached(s),
		Config: legacyConfigOf(tr.Best), Seconds: tr.BestM.Seconds, Budget: max(tr.Budget, len(tr.History))}
	for _, h := range tr.History {
		e.Rows = append(e.Rows, legacyRow{legacyConfigOf(h.Config), h.M.Seconds, h.OK})
	}
	return e
}

// legacyWriters is the reference encoder's output for entries: the checksum,
// EncodeEntries' compact envelope and Save's indented file.
func legacyWriters(t testing.TB, entries []legacyEntry) (sum string, wire, file []byte) {
	t.Helper()
	body, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	f := legacyFile{Version: cacheFormatVersion, Checksum: entriesChecksum(body), Entries: entries}
	if wire, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	return f.Checksum, wire, out.Bytes()
}

// assertWritersMatchLegacy checks every writer of c against the reference
// encoder over want (keyed by cache key), and that Save → Load → Save is
// the identity.
func assertWritersMatchLegacy(t testing.TB, c *Cache, want map[string]legacyEntry) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("cache holds %d entries, reference %d", c.Len(), len(want))
	}
	ref := make([]legacyEntry, 0, len(want))
	for _, k := range slices.Sorted(maps.Keys(want)) {
		ref = append(ref, want[k])
	}
	wantSum, wantWire, wantFile := legacyWriters(t, ref)

	entries := c.sortedEntries(func(CacheEntry) bool { return true })
	body, err := entriesJSON(entries)
	if sum := entriesChecksum(body); err != nil || sum != wantSum {
		t.Errorf("checksum %s (%v), reference encoder %s", sum, err, wantSum)
	}
	wire, err := EncodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, "EncodeEntries", wire, wantWire)
	var file bytes.Buffer
	if err := c.Save(&file); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, "Save", file.Bytes(), wantFile)

	back := NewCache()
	if err := back.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Save(&again); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, "Save → Load → Save", again.Bytes(), file.Bytes())
}

func assertSameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Errorf("%s: %d bytes, reference encoder %d; first difference at %d:\n got  …%s\n want …%s",
		what, len(got), len(want), i, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// assertWritersMatchTraces is assertWritersMatchLegacy over a cache filled by
// searches: the reference holds, per key, the trace of the last search that
// stored it.
func assertWritersMatchTraces(t testing.TB, c *Cache, searches []SearchTrace) {
	t.Helper()
	want := make(map[string]legacyEntry)
	for _, st := range searches {
		sp := st.Space
		want[cacheKey(sp.Arch.Name, sp.Kind, sp.Shape)] = legacyEntryOf(sp.Arch.Name, sp.Kind, sp.Shape, st.Trace)
	}
	assertWritersMatchLegacy(t, c, want)
}

// assertBestSoFar fails unless BestSoFar over tr's history has a point per
// measurement, never rises, ends at the verdict's seconds (+Inf with no
// verdict), and last drops at the trace's ConvergedAt.
func assertBestSoFar(t testing.TB, what string, tr *Trace) {
	t.Helper()
	got := BestSoFar(tr.History)
	if len(got) != tr.Measurements {
		t.Fatalf("%s: BestSoFar gives %d points over %d measurements", what, len(got), tr.Measurements)
	}
	last, at := math.Inf(1), 0
	for i, sec := range got {
		if sec > last {
			t.Fatalf("%s: best-so-far rose at %d: %v after %v", what, i, sec, last)
		}
		if sec < last {
			at = i + 1
		}
		last = sec
	}
	want := tr.BestM.Seconds
	if tr.BestM == (Measurement{}) {
		want = math.Inf(1)
	}
	if math.Float64bits(last) != math.Float64bits(want) {
		t.Fatalf("%s: best-so-far ends at %v, verdict %v", what, last, want)
	}
	if at != tr.ConvergedAt {
		t.Fatalf("%s: best-so-far last drops at %d, ConvergedAt %d", what, at, tr.ConvergedAt)
	}
}

// patchyMeasurer fails every attempt on a tenth of the configurations, so a
// retrying search quarantines them, and the first attempt on another tenth,
// so it retries them.
func patchyMeasurer(m Measurer) FallibleMeasurer {
	attempts := make(map[conv.Config]int)
	return func(c conv.Config) (Measurement, bool, error) {
		h := (c.TileX*31+c.TileY)*31 + c.TileZ*7 + c.ThreadsX*3 + c.SharedPerBlock
		attempts[c]++
		if h%10 == 0 || (h%10 == 1 && attempts[c] == 1) {
			return Measurement{}, false, errTransient
		}
		meas, ok := m(c)
		return meas, ok, nil
	}
}

// The best-so-far series is derived from Trace.History, so it must agree
// with the trace's verdict and ConvergedAt on every kind of run: every kind,
// pruned and NoPrune, resumed and covered, with failures retried and
// quarantined, and the baseline searchers.
func TestBestSoFarMatchesTrace(t *testing.T) {
	grouped := layer()
	grouped.Cin, grouped.Cout, grouped.Groups = 96, 96, 4
	strided := shapes.ConvShape{Batch: 1, Cin: 32, Hin: 28, Win: 28, Cout: 48, Hker: 5, Wker: 5, Strid: 2, Pad: 2}
	var retries, quarantined int
	for _, s := range []shapes.ConvShape{layer(), grouped, strided} {
		for _, kind := range Kinds {
			for _, e := range kind.spec().edges {
				sp, err := NewSpace(s, arch, kind, e, true)
				if err != nil {
					continue // the kind does not take this shape
				}
				measure := KindMeasurer(arch, s, kind)
				name := fmt.Sprintf("%v e=%d %v", kind, e, s)
				for seed := int64(0); seed < 3; seed++ {
					opts := smallOpts(40, seed)
					tr, err := Tune(sp, measure, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertBestSoFar(t, name+" tune", tr)
					opts.NoPrune = true
					if tr, err = Tune(sp, measure, opts); err != nil {
						t.Fatal(err)
					}
					assertBestSoFar(t, name+" noprune", tr)
				}

				opts := smallOpts(40, 1)
				opts.Retry = RetryPolicy{MaxAttempts: 2}
				tr, err := TuneFallible(t.Context(), sp, patchyMeasurer(measure), opts)
				if err != nil {
					t.Fatal(err)
				}
				retries, quarantined = retries+tr.Retries, quarantined+tr.Quarantined
				assertBestSoFar(t, name+" retry/quarantine", tr)

				c := NewCache()
				if _, err := TuneResumed(c, sp, measure, smallOpts(20, 2)); err != nil {
					t.Fatal(err)
				}
				resumed, err := TuneResumed(c, sp, measure, smallOpts(50, 2))
				if err != nil {
					t.Fatal(err)
				}
				assertBestSoFar(t, name+" resumed", resumed)
				covered, err := TuneResumed(c, sp, measure, smallOpts(50, 2))
				if err != nil {
					t.Fatal(err)
				}
				assertBestSoFar(t, name+" covered resume", covered)
				if covered.ConvergedAt != resumed.ConvergedAt || !slices.Equal(covered.History, resumed.History) {
					t.Fatalf("%s: covered resume converged at %d, the resumed run at %d", name, covered.ConvergedAt, resumed.ConvergedAt)
				}

				for method, search := range map[string]func(*Space, Measurer, Options) (*Trace, error){
					"random": RandomSearch, "sa": SimulatedAnnealing, "ga": GeneticAlgorithm,
				} {
					tr, err := search(sp, measure, smallOpts(30, 3))
					if err != nil {
						t.Fatal(err)
					}
					assertBestSoFar(t, name+" "+method, tr)
				}
			}
		}
	}
	if retries == 0 || quarantined == 0 {
		t.Fatalf("flaky runs retried %d and quarantined %d times, want both", retries, quarantined)
	}
}

// A covered resume takes ConvergedAt from record.add's rule, a strict drop
// in seconds: a tie at the incumbent's seconds that configLess prefers takes
// the verdict, a Winograd tile of another edge, without improving, so the
// covered trace converges where the live run did.
func TestCoveredResumeKeepsLiveConvergedAt(t *testing.T) {
	sp, err := NewSpace(layer(), arch, Winograd, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	tile := func(x, e int) conv.Config {
		return conv.Config{TileX: x, TileY: x, TileZ: 1, ThreadsX: x, ThreadsY: x, ThreadsZ: 1, SharedPerBlock: 12288, WinogradE: e}
	}
	live := record{trace: Trace{Method: "ate", Budget: 4}}
	for _, h := range []MeasuredConfig{
		{tile(8, 4), Measurement{Seconds: 2e-4}, true},
		{tile(4, 4), Measurement{Seconds: 1e-4}, true},
		{tile(2, 2), Measurement{Seconds: 1e-4}, true}, // the tie configLess prefers
		{tile(8, 2), Measurement{}, false},
	} {
		live.add(h.Config, h.M, h.OK)
	}
	if live.trace.ConvergedAt != 2 || live.trace.Best != tile(2, 2) {
		t.Fatalf("live run converged at %d on %v, want 2 on the tie's tile", live.trace.ConvergedAt, live.trace.Best)
	}
	c := NewCache()
	c.PutTrace(arch.Name, Winograd, sp.Shape, &live.trace)
	covered, err := TuneResumed(c, sp, func(conv.Config) (Measurement, bool) {
		t.Fatal("a covered resume measured")
		return Measurement{}, false
	}, smallOpts(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if covered.ConvergedAt != live.trace.ConvergedAt || covered.Best != live.trace.Best || covered.Measurements != 4 {
		t.Errorf("covered resume converged at %d on %v over %d measurements, live run at %d on %v",
			covered.ConvergedAt, covered.Best, covered.Measurements, live.trace.ConvergedAt, live.trace.Best)
	}
}

// genTrace is a random history run through the engine's own bookkeeping
// (record.add): failed rows and ties on seconds.
func genTrace(rng *rand.Rand, sp *Space, n int) *Trace {
	var r record
	for i := range n {
		m := Measurement{Seconds: float64(1+rng.Intn(4)) * 1e-4}
		ok := rng.Intn(5) > 0 || (i == n-1 && !r.found) // a verdict to store
		if !ok {
			m = Measurement{}
		}
		r.add(sp.Sample(rng), m, ok)
	}
	r.trace.Budget = rng.Intn(2) * (n + rng.Intn(20))
	return &r.trace
}

// Generated entry sets — verdict-only entries, traces with failed rows,
// budget 0, and entries arriving through PutEntries the way a replica ships
// them — write exactly the reference encoder's bytes from every writer.
func TestEntryWritersMatchLegacyEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for set := range 20 {
		c := NewCache()
		want := make(map[string]legacyEntry)
		for i := range 1 + rng.Intn(12) {
			s := layer()
			s.Cout += 8 * i
			kind := []Kind{Direct, Winograd}[rng.Intn(2)]
			sp, err := NewSpace(s, arch, kind, kind.spec().edges[0], true)
			if err != nil {
				t.Fatal(err)
			}
			key := cacheKey(arch.Name, kind, s)
			tr := genTrace(rng, sp, 1+rng.Intn(30))
			switch rng.Intn(3) {
			case 0: // verdict-only
				c.Put(arch.Name, kind, s, tr.Best, tr.BestM)
				e := legacyEntryOf(arch.Name, kind, s, &Trace{Best: tr.Best, BestM: tr.BestM})
				want[key] = e
			case 1:
				c.PutTrace(arch.Name, kind, s, tr)
				want[key] = legacyEntryOf(arch.Name, kind, s, tr)
			default: // shipped by a peer, its budget possibly 0
				e := legacyEntryOf(arch.Name, kind, s, tr)
				e.Budget = tr.Budget
				raw, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				var shipped CacheEntry
				if err := json.Unmarshal(raw, &shipped); err != nil {
					t.Fatal(err)
				}
				if err := c.PutEntries([]CacheEntry{shipped}); err != nil {
					t.Fatal(err)
				}
				want[key] = e
			}
		}
		t.Run(fmt.Sprint(set), func(t *testing.T) { assertWritersMatchLegacy(t, c, want) })
	}
	// The empty cache and a nil entry set keep their encodings too.
	assertWritersMatchLegacy(t, NewCache(), nil)
	_, wantWire, _ := legacyWriters(t, nil)
	if wire, err := EncodeEntries(nil); err != nil || !bytes.Equal(wire, wantWire) {
		t.Errorf("EncodeEntries(nil) = %s (%v), reference encoder %s", wire, err, wantWire)
	}
}

// A state entry round-trips through Save/Load with its history, failed rows
// included, and its verdict.
func TestCacheStateRoundTrip(t *testing.T) {
	sp, err := NewSpace(layer(), arch, Winograd, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(60, 1)
	opts.Retry = RetryPolicy{MaxAttempts: 2}
	tr, err := TuneFallible(t.Context(), sp, patchyMeasurer(KindMeasurer(arch, sp.Shape, Winograd)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Quarantined == 0 {
		t.Fatal("trace has no failed rows")
	}
	c := NewCache()
	c.PutTrace(arch.Name, Winograd, sp.Shape, tr)
	if e, _ := c.Entry(arch.Name, Winograd, sp.Shape); len(e.Rows) != len(tr.History) {
		t.Fatalf("stored entry holds %d rows, want %d", len(e.Rows), len(tr.History))
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	hist, ok := restored.State(arch.Name, Winograd, sp.Shape)
	if !ok {
		t.Fatal("restored entry lost its state")
	}
	if !slices.Equal(hist, tr.History) {
		t.Error("history changed over Save/Load")
	}
	cfg, m, ok := restored.Get(arch.Name, Winograd, sp.Shape)
	if !ok || cfg != tr.Best || m != tr.BestM {
		t.Fatalf("restored verdict wrong: %v %v %v", cfg, m, ok)
	}
}

// A row is seven int16 and two int8 config fields, its seconds and a flag:
// 32 bytes, and the eviction size model counts exactly that. A widened field
// shows here.
func TestCachedMeasurementSize(t *testing.T) {
	if got := unsafe.Sizeof(CachedMeasurement{}); got != 32 || rowBytes != 32 {
		t.Fatalf("CachedMeasurement is %d bytes, size model says %d; want 32", got, rowBytes)
	}
}

// A config past the narrowed fields panics rather than wrap to another
// config.
func TestConfigToCachedRefusesToWrap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("configToCached took Sb 40000 into an int16")
		}
	}()
	configToCached(conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 40000})
}

// Every store holds an entry's rows at their length, so the size model and
// the cache's byte total count what is held: decoded rows (a replication
// push, Load, the salvage) arrive with encoding/json's growth slack.
func TestStoredRowsHeldAtLength(t *testing.T) {
	sp, err := NewSpace(layer(), arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Tune(sp, KindMeasurer(arch, sp.Shape, Direct), smallOpts(45, 1))
	if err != nil {
		t.Fatal(err)
	}
	all := func(CacheEntry) bool { return true }
	src := NewCache()
	src.PutTrace(arch.Name, Direct, sp.Shape, tr)
	env, err := EncodeEntries(src.sortedEntries(all))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeEntries(env)
	if err != nil {
		t.Fatal(err)
	}
	if r := decoded[0].Rows; cap(r) == len(r) {
		t.Fatalf("decoded rows carry no slack (len %d, cap %d): the test proves nothing", len(r), cap(r))
	}
	torn := filepath.Join(t.TempDir(), "torn.cache")
	if err := os.WriteFile(torn, env[:len(env)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	pushed, loaded, salvaged, committed := NewCache(), NewCache(), NewCache(), NewCache()
	if err := pushed.PutEntries(decoded); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(bytes.NewReader(env)); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := salvaged.RecoverFile(torn); n != 1 || !ok || err != nil {
		t.Fatalf("RecoverFile loaded %d (salvaged %v, err %v), want the 1 entry", n, ok, err)
	}
	if _, _, err := TuneCached(committed, sp, KindMeasurer(arch, sp.Shape, Direct), smallOpts(45, 1)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"PutEntries": pushed, "Load": loaded, "RecoverFile": salvaged, "engine commit": committed} {
		var sum int64
		for _, e := range c.sortedEntries(all) {
			if len(e.Rows) == 0 || cap(e.Rows) != len(e.Rows) {
				t.Errorf("%s: entry holds %d rows at capacity %d, want rows at their length", name, len(e.Rows), cap(e.Rows))
			}
			sum += e.SizeBytes()
		}
		if got := c.Stats().Bytes; got != sum {
			t.Errorf("%s: cache counts %d bytes, its entries' SizeBytes sum to %d", name, got, sum)
		}
	}
}

// A well-formed entry that does not fit the entry type — a string for a
// number, a config value past its field's width (int16 for the tile and
// thread dims and Sb, int8 for the layout and tile edge) — is skipped by the salvage and the
// entries after it are kept, while Load and DecodeEntries still reject the
// whole envelope.
func TestRecoverFileSkipsMistypedEntry(t *testing.T) {
	good := func(cout int) string {
		return strings.Replace(validEntryJSON("direct"), `"Cout":64`, fmt.Sprintf(`"Cout":%d`, cout), 1)
	}
	for name, bad := range map[string]string{
		"string field":        strings.Replace(good(72), `"Cin":96`, `"Cin":"x"`, 1),
		"int32 overflow":      strings.Replace(good(72), `"TileX":9`, `"TileX":3000000000`, 1),
		"row int32 underflow": strings.Replace(good(72), `"seconds":1.5e-4}`, `"seconds":1.5e-4,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":-2147483649},"seconds":1e-4,"ok":true}]}`, 1),
		"not an object":       `"entry"`,
		"int16 overflow":      strings.Replace(good(72), `"TileZ":8`, `"TileZ":32768`, 1),
		"row int8 overflow":   strings.Replace(good(72), `"seconds":1.5e-4}`, `"seconds":1.5e-4,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":256,"Layout":128},"seconds":1e-4,"ok":true}]}`, 1),
	} {
		entries := `"entries":[` + good(64) + `,` + bad + `,` + good(80) + `]}`
		data := `{"version":3,"checksum":"crc32c:00000000",` + entries
		for _, data := range []string{data, `{"version":3,` + entries} {
			if err := NewCache().Load(strings.NewReader(data)); err == nil {
				t.Errorf("%s: Load accepted the envelope", name)
			}
			if _, err := DecodeEntries([]byte(data)); err == nil {
				t.Errorf("%s: DecodeEntries accepted the envelope", name)
			}
		}
		path := filepath.Join(t.TempDir(), "state.cache")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		loaded, salvaged, err := c.RecoverFile(path)
		if err != nil || !salvaged || loaded != 2 {
			t.Errorf("%s: RecoverFile loaded %d (salvaged %v, err %v), want the 2 good entries", name, loaded, salvaged, err)
		}
		for _, cout := range []int{64, 80} {
			s := layer()
			s.Cout = cout
			if _, _, ok := c.Get(arch.Name, Direct, s); !ok {
				t.Errorf("%s: entry Cout=%d not salvaged", name, cout)
			}
		}
	}

	// A syntax error still ends the salvage: nothing after it is read.
	data := `{"version":3,"entries":[` + good(64) + `,{"arch":"V100",,` + good(80) + `]}`
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err := NewCache().RecoverFile(path); err != nil || loaded != 1 {
		t.Errorf("syntax error: RecoverFile loaded %d (%v), want the 1 entry before it", loaded, err)
	}
}

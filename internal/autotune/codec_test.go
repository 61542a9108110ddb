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

// The cache holds an entry's rows in int16/int8 fields and no curve, and writes the
// envelope entry by entry; none of that may move a byte it writes. The
// reference here is the previous encoder, kept as test code: entries with
// int config fields and the curve the engine built, marshalled whole by
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
	GFLOPS  float64      `json:"gflops"`
	OK      bool         `json:"ok"`
}

type legacyEntry struct {
	Arch    string       `json:"arch"`
	Kind    string       `json:"kind"`
	Shape   cachedShape  `json:"shape"`
	Config  legacyConfig `json:"config"`
	Seconds float64      `json:"seconds"`
	GFLOPS  float64      `json:"gflops"`
	Rows    []legacyRow  `json:"rows,omitempty"`
	Curve   []float64    `json:"curve,omitempty"`
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

// legacyEntryOf is what the previous PutTrace stored for a trace.
func legacyEntryOf(archName string, kind Kind, s shapes.ConvShape, tr *Trace) legacyEntry {
	e := legacyEntry{Arch: archName, Kind: kind.String(), Shape: shapeToCached(s),
		Config: legacyConfigOf(tr.Best), Seconds: tr.BestM.Seconds, GFLOPS: tr.BestM.GFLOPS,
		Curve: append([]float64(nil), tr.Curve...), Budget: max(tr.Budget, len(tr.History))}
	for _, h := range tr.History {
		e.Rows = append(e.Rows, legacyRow{legacyConfigOf(h.Config), h.M.Seconds, h.M.GFLOPS, h.OK})
	}
	return e
}

// legacyWriters is the previous encoder's output for entries: the checksum,
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

// assertWritersMatchLegacy checks every writer of c against the previous
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
		t.Errorf("checksum %s (%v), previous encoder %s", sum, err, wantSum)
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
	t.Errorf("%s: %d bytes, previous encoder %d; first difference at %d:\n got  …%s\n want …%s",
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

// assertCurveOf fails unless curveOf rebuilds tr's curve bit for bit.
func assertCurveOf(t testing.TB, what string, tr *Trace) {
	t.Helper()
	got := curveOf(tr.History)
	if len(got) != len(tr.Curve) || len(got) != tr.Measurements {
		t.Fatalf("%s: curveOf gives %d points, trace %d over %d measurements", what, len(got), len(tr.Curve), tr.Measurements)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(tr.Curve[i]) {
			t.Fatalf("%s: curve[%d] = %v, trace %v", what, i, got[i], tr.Curve[i])
		}
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

// The stored curve is derived, so curveOf must rebuild Trace.Curve bit for
// bit from Trace.History on every kind of run: every kind (on Winograd a
// faster incumbent can lower the curve), pruned and NoPrune, resumed, with
// failures retried and quarantined, and the baseline searchers.
func TestCurveOfMatchesTrace(t *testing.T) {
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
					assertCurveOf(t, name+" tune", tr)
					opts.NoPrune = true
					if tr, err = Tune(sp, measure, opts); err != nil {
						t.Fatal(err)
					}
					assertCurveOf(t, name+" noprune", tr)
				}

				opts := smallOpts(40, 1)
				opts.Retry = RetryPolicy{MaxAttempts: 2}
				tr, err := TuneFallible(t.Context(), sp, patchyMeasurer(measure), opts)
				if err != nil {
					t.Fatal(err)
				}
				retries, quarantined = retries+tr.Retries, quarantined+tr.Quarantined
				assertCurveOf(t, name+" retry/quarantine", tr)

				c := NewCache()
				if _, err := TuneResumed(c, sp, measure, smallOpts(20, 2)); err != nil {
					t.Fatal(err)
				}
				resumed, err := TuneResumed(c, sp, measure, smallOpts(50, 2))
				if err != nil {
					t.Fatal(err)
				}
				assertCurveOf(t, name+" resumed", resumed)
				covered, err := TuneResumed(c, sp, measure, smallOpts(50, 2))
				if err != nil {
					t.Fatal(err)
				}
				assertCurveOf(t, name+" covered resume", covered)
				if _, curve, _ := c.State(arch.Name, kind, s); !slices.Equal(curve, resumed.Curve) {
					t.Fatalf("%s: State's curve differs from the resumed trace's", name)
				}

				for method, search := range map[string]func(*Space, Measurer, Options) (*Trace, error){
					"random": RandomSearch, "sa": SimulatedAnnealing, "ga": GeneticAlgorithm,
				} {
					tr, err := search(sp, measure, smallOpts(30, 3))
					if err != nil {
						t.Fatal(err)
					}
					assertCurveOf(t, name+" "+method, tr)
				}
			}
		}
	}
	if retries == 0 || quarantined == 0 {
		t.Fatalf("flaky runs retried %d and quarantined %d times, want both", retries, quarantined)
	}
}

// genTrace is a random history run through the engine's own bookkeeping
// (record.add): failed rows, ties on seconds, and GFLOPS drawn apart from
// seconds, so a faster incumbent can lower the curve as on Winograd.
func genTrace(rng *rand.Rand, sp *Space, n int) *Trace {
	var r record
	for i := range n {
		m := Measurement{Seconds: float64(1+rng.Intn(4)) * 1e-4, GFLOPS: float64(rng.Intn(2000)) + rng.Float64()}
		ok := rng.Intn(5) > 0 || (i == n-1 && !r.found) // a verdict to store
		if !ok {
			m = Measurement{}
		}
		r.add(sp.Sample(rng), m, ok)
	}
	r.trace.Budget = rng.Intn(2) * (n + rng.Intn(20))
	return &r.trace
}

// Generated entry sets — verdict-only entries, traces with failed rows and
// lowering curves, budget 0, and entries arriving through PutEntries the way
// a replica ships them — write exactly the previous encoder's bytes from
// every writer.
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
		t.Errorf("EncodeEntries(nil) = %s (%v), previous encoder %s", wire, err, wantWire)
	}
}

// A stored entry holds its rows and no curve; State, TuneResumed and the
// writers rebuild it. So a state entry round-trips through Save/Load with
// its history, the engine's curve and its verdict.
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
	if e, _ := c.Entry(arch.Name, Winograd, sp.Shape); e.Curve != nil || len(e.Rows) != len(tr.History) {
		t.Fatalf("stored entry holds %d rows and a %d-point curve, want %d rows and none", len(e.Rows), len(e.Curve), len(tr.History))
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if e, _ := restored.Entry(arch.Name, Winograd, sp.Shape); e.Curve != nil {
		t.Fatal("a loaded entry kept its curve")
	}
	hist, curve, ok := restored.State(arch.Name, Winograd, sp.Shape)
	if !ok {
		t.Fatal("restored entry lost its state")
	}
	if !slices.Equal(hist, tr.History) {
		t.Error("history changed over Save/Load")
	}
	if !slices.Equal(curve, tr.Curve) {
		t.Errorf("curve changed over Save/Load:\n%v\n%v", curve, tr.Curve)
	}
	cfg, m, ok := restored.Get(arch.Name, Winograd, sp.Shape)
	if !ok || cfg != tr.Best || m != tr.BestM {
		t.Fatalf("restored verdict wrong: %v %v %v", cfg, m, ok)
	}
}

// A row is seven int16 and two int8 config fields, two floats and a flag:
// 40 bytes, and the eviction size model counts exactly that. A widened field
// shows here.
func TestCachedMeasurementSize(t *testing.T) {
	if got := unsafe.Sizeof(CachedMeasurement{}); got != 40 || rowBytes != 40 {
		t.Fatalf("CachedMeasurement is %d bytes, size model says %d; want 40", got, rowBytes)
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
		"row int32 underflow": strings.Replace(good(72), `"gflops":1234}`, `"gflops":1234,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":-2147483649},"seconds":1e-4,"gflops":1,"ok":true}]}`, 1),
		"not an object":       `"entry"`,
		"int16 overflow":      strings.Replace(good(72), `"TileZ":8`, `"TileZ":32768`, 1),
		"row int8 overflow":   strings.Replace(good(72), `"gflops":1234}`, `"gflops":1234,"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":256,"Layout":128},"seconds":1e-4,"gflops":1,"ok":true}]}`, 1),
	} {
		entries := `"entries":[` + good(64) + `,` + bad + `,` + good(80) + `]}`
		data := `{"version":2,"checksum":"crc32c:00000000",` + entries
		for _, data := range []string{data, `{"version":2,` + entries} {
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
	data := `{"version":2,"entries":[` + good(64) + `,{"arch":"V100",,` + good(80) + `]}`
	path := filepath.Join(t.TempDir(), "state.cache")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err := NewCache().RecoverFile(path); err != nil || loaded != 1 {
		t.Errorf("syntax error: RecoverFile loaded %d (%v), want the 1 entry before it", loaded, err)
	}
}

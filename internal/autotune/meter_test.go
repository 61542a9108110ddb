package autotune_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// meterLine is one line of testdata/meter.jsonl: the engine meter — per
// engine seed of a cold zoo pass on the line's architecture, its
// measurements, the zoo shapes whose verdict is at the optimum, the pass's
// network time and regret and the bound's looseness — as a change left it.
// A line without an arch is a V100 line, as every line was before the held-
// out architecture; its seeds are 0–7 on the early lines and 0–15 on the
// later ones. A value the record does not hold is null, and the early lines
// hold no regret; halves carries the sums per four seeds (two on an
// eight-seed line, four on a sixteen-seed line), which also stand for lines
// whose seeds are incomplete.
type meterLine struct {
	PR     int         `json:"pr"`
	Parent string      `json:"parent"`
	Arch   string      `json:"arch"`
	Source string      `json:"source"`
	Seeds  []meterSeed `json:"seeds"`
	Halves []meterHalf `json:"halves"`
}

type meterSeed struct {
	Seed         int      `json:"seed"`
	Measurements *int     `json:"measurements"`
	Layers       *int     `json:"layers"`
	NetworkMS    *float64 `json:"network_ms"`
	RegretUS     *float64 `json:"regret_us,omitempty"`
	Looseness    *float64 `json:"looseness"`
}

type meterHalf struct {
	Seeds        string  `json:"seeds"`
	Measurements int     `json:"measurements"`
	Layers       int     `json:"layers"`
	NetworkMS    float64 `json:"network_ms"`
}

var (
	meterAll    = regexp.MustCompile(`(?m)^seed (\d+) all: .*, looseness geomean (\S+), (\d+) measurements$`)
	meterLayers = regexp.MustCompile(`(?m)^seed (\d+) layers: (\d+) of \d+ shapes at the optimum, network (\S+) ms, regret (\S+) µs, largest .*$`)
)

// meterGoldens are the oracle goldens of each architecture the meter reads.
var meterGoldens = map[string][]string{
	"V100":   {"oracle.golden", "oracle_heldout.golden", "oracle_seeds8_15.golden"},
	"1080Ti": {"oracle_1080ti.golden"},
}

// TestMeterHistory holds the meter's history to the tree: for each
// architecture, the last line of testdata/meter.jsonl must equal the `all`
// and `layers` lines of its oracle goldens — seeds 0–15 on V100, seeds 0–3 on
// the held-out 1080Ti — and every line must be well formed, with its halves
// the sums of whatever seeds it records. An architecture's lines never
// record fewer seeds than its line before. It re-runs nothing. A change that
// moves the meter regenerates the goldens and appends one line per
// architecture; it never rewrites a line.
func TestMeterHistory(t *testing.T) {
	raw, err := os.ReadFile("testdata/meter.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var lines []meterLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var l meterLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("meter.jsonl line %d: %v", len(lines)+1, err)
		}
		if l.Arch == "" {
			l.Arch = "V100"
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	last := make(map[string]meterLine)
	for i, l := range lines {
		if _, ok := meterGoldens[l.Arch]; !ok {
			t.Fatalf("line %d: architecture %q has no goldens", i+1, l.Arch)
		}
		if i > 0 && l.PR < lines[i-1].PR {
			t.Errorf("line %d: change %d does not follow %d", i+1, l.PR, lines[i-1].PR)
		}
		prev, seen := last[l.Arch]
		if seen && l.PR <= prev.PR {
			t.Errorf("line %d: %s change %d does not follow %d", i+1, l.Arch, l.PR, prev.PR)
		}
		if l.Parent == "" || len(l.Seeds) == 0 || len(l.Seeds)%4 != 0 || len(l.Halves) != len(l.Seeds)/4 ||
			seen && len(l.Seeds) < len(prev.Seeds) {
			t.Fatalf("line %d: want a parent, a multiple of four seeds (at least the %s line before's) and a half per four, got %q, %d, %d",
				i+1, l.Arch, l.Parent, len(l.Seeds), len(l.Halves))
		}
		for h, half := range l.Halves {
			checkMeterHalf(t, i+1, half, l.Seeds[4*h:4*h+4])
		}
		last[l.Arch] = l
	}
	for arch, names := range meterGoldens {
		l, ok := last[arch]
		if !ok {
			t.Fatalf("meter.jsonl holds no %s line", arch)
		}
		checkMeterLine(t, l, names)
	}
}

// checkMeterLine holds an architecture's last meter line to its goldens.
func checkMeterLine(t *testing.T, last meterLine, goldens []string) {
	t.Helper()
	want := make(map[int]*meterSeed)
	seed := func(b []byte) *meterSeed {
		n := *meterInt(t, b)
		if want[n] == nil {
			want[n] = &meterSeed{Seed: n}
		}
		return want[n]
	}
	for _, name := range goldens {
		g, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range meterAll.FindAllSubmatch(g, -1) {
			s := seed(m[1])
			s.Looseness, s.Measurements = meterFloat(t, m[2]), meterInt(t, m[3])
		}
		for _, m := range meterLayers.FindAllSubmatch(g, -1) {
			s := seed(m[1])
			s.Layers, s.NetworkMS, s.RegretUS = meterInt(t, m[2]), meterFloat(t, m[3]), meterFloat(t, m[4])
		}
	}
	if len(last.Seeds) != len(want) {
		t.Fatalf("last %s meter line (change %d) records %d seeds, the goldens %d", last.Arch, last.PR, len(last.Seeds), len(want))
	}
	for i, got := range last.Seeds {
		w := want[i]
		if w == nil || w.Measurements == nil || w.Layers == nil {
			t.Fatalf("the %s goldens hold no `all` and `layers` lines for seed %d", last.Arch, i)
		}
		if got.Seed != i || !meterEqual(got.Measurements, w.Measurements) || !meterEqual(got.Layers, w.Layers) ||
			!meterEqual(got.NetworkMS, w.NetworkMS) || !meterEqual(got.RegretUS, w.RegretUS) || !meterEqual(got.Looseness, w.Looseness) {
			t.Errorf("last %s meter line (change %d), seed %d: got %s, the goldens read %s",
				last.Arch, last.PR, i, meterString(got), meterString(*w))
		}
	}
}

// checkMeterHalf holds a half's sums to its seeds where they record them all.
func checkMeterHalf(t *testing.T, line int, half meterHalf, seeds []meterSeed) {
	t.Helper()
	if want := strconv.Itoa(seeds[0].Seed) + "-" + strconv.Itoa(seeds[3].Seed); half.Seeds != want {
		t.Errorf("line %d: half %q, want %q", line, half.Seeds, want)
	}
	m, l, ms := 0, 0, 0.0
	var n [3]int // seeds recording measurements, layers, network ms
	for i, s := range seeds {
		if s.Seed != seeds[0].Seed+i {
			t.Errorf("line %d: seed %d out of order", line, s.Seed)
		}
		if s.Measurements != nil {
			m, n[0] = m+*s.Measurements, n[0]+1
		}
		if s.Layers != nil {
			l, n[1] = l+*s.Layers, n[1]+1
		}
		if s.NetworkMS != nil {
			ms, n[2] = ms+*s.NetworkMS, n[2]+1
		}
	}
	// The halves' network time is written to 5 decimals.
	if n[0] == 4 && m != half.Measurements || n[1] == 4 && l != half.Layers || n[2] == 4 && math.Abs(ms-half.NetworkMS) > 5e-6 {
		t.Errorf("line %d: half %s records %d measurements, %d layers, %v ms; its seeds sum to %d, %d, %v",
			line, half.Seeds, half.Measurements, half.Layers, half.NetworkMS, m, l, ms)
	}
}

func meterInt(t *testing.T, b []byte) *int {
	t.Helper()
	v, err := strconv.Atoi(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

func meterFloat(t *testing.T, b []byte) *float64 {
	t.Helper()
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

func meterEqual[T comparable](got, want *T) bool { return got != nil && want != nil && *got == *want }

func meterString(s meterSeed) string {
	b, _ := json.Marshal(s)
	return string(b)
}

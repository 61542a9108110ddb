package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tree")

// TestQuickGolden pins the seven -quick reports byte for byte, in the order
// and layout `repro -exp all -quick` prints them (without its timing lines).
// Table 2's iterations and Figure 11's curves run through the tuning engine
// and its cost model, so a change there that moves one verdict fails here by
// table and line. Regenerate with
//
//	go test ./internal/experiments -run TestQuickGolden -update
//
// only for a change that is meant to move a reported number.
func TestQuickGolden(t *testing.T) {
	table := func(_ any, tb *report.Table, err error) (*report.Table, error) { return tb, err }
	runs := []struct {
		name string
		run  func(Options) (*report.Table, error)
	}{
		{"theory", func(o Options) (*report.Table, error) { return table(Theory(o)) }},
		{"fig9", func(o Options) (*report.Table, error) { return table(Fig9(o)) }},
		{"fig10", func(o Options) (*report.Table, error) { return table(Fig10(o)) }},
		{"fig11", func(o Options) (*report.Table, error) { return table(Fig11(o)) }},
		{"table2", func(o Options) (*report.Table, error) { return table(Table2(o)) }},
		{"fig12", func(o Options) (*report.Table, error) { return table(Fig12(o)) }},
		{"fig13", func(o Options) (*report.Table, error) { return table(Fig13(o)) }},
	}
	var b bytes.Buffer
	for _, r := range runs {
		tb, err := r.run(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := tb.WriteText(&b); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		b.WriteString("\n")
	}

	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("quick.golden moved at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("quick.golden moved: %d lines, want %d", len(gotLines), len(wantLines))
}

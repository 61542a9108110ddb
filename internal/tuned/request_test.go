package tuned

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/autotune"
	"repro/internal/models"
)

// Kind lists that name one set — in any order, with repeats — resolve to one
// Key and one groupKey, so a cluster routes them to one owner and the refine
// queue and the batcher dedup them. A server default given the same way
// resolves to the same key.
func TestEquivalentKindListsShareKey(t *testing.T) {
	srv, err := New(Config{Tune: tinyOpts(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	desc := repro.DescribeNetwork(testArch.Name, netA())
	keys, groups := map[string]bool{}, map[string]bool{}
	for _, kinds := range [][]string{{"igemm", "fft"}, {"fft", "igemm"}, {"fft", "fft", "igemm"}} {
		d := desc
		d.Options = &repro.RequestOptions{Kinds: kinds}
		req, err := srv.resolve(d)
		if err != nil {
			t.Fatal(err)
		}
		keys[req.Key()], groups[req.groupKey()] = true, true
	}
	if len(keys) != 1 || len(groups) != 1 {
		t.Fatalf("one kind set resolved to %d keys and %d group keys: %v", len(keys), len(groups), groups)
	}
	for g := range groups {
		if !strings.HasSuffix(g, "|fft,igemm") {
			t.Errorf("group key %q does not end in the canonical kind list", g)
		}
	}

	def, err := New(Config{Tune: tinyOpts(8, 3), Kinds: []autotune.Kind{autotune.ImplicitGEMM, autotune.FFT, autotune.FFT}})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	req, err := def.resolve(desc)
	if err != nil {
		t.Fatal(err)
	}
	if !keys[req.Key()] {
		t.Errorf("server default kinds resolved to %q, want the request's key", req.Key())
	}
}

// BenchmarkResolveKey is what a request pays before any stage runs when it
// needs its key — every clustered request, for routing, and every analytic
// answer, for the refine queue: resolve plus Key() of InceptionV3.
func BenchmarkResolveKey(b *testing.B) {
	srv, err := New(Config{Winograd: true, Warm: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	desc, err := repro.ParseNetworkDescription(benchBody(b, models.InceptionV3().NetworkLayers(), nil))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req, err := srv.resolve(desc)
		if err != nil {
			b.Fatal(err)
		}
		req.Key()
	}
}

package tuned

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

const (
	// v2HandoffFile is a .handoff sidecar the version-2 writer wrote for
	// goldenPeer: two entries whose rows and verdicts carry a "gflops" rate
	// and whose searches' best-so-far rates ride along as "curve".
	v2HandoffFile = `{"version":1,"peers":{"` + goldenPeer + `":[` +
		`{"arch":"V100","kind":"direct","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,` +
		`"Stride":1,"Pad":1,"Groups":0},"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,` +
		`"SharedPerBlock":384,"Layout":2,"WinogradE":0},"seconds":0.000054669444295302014,"gflops":2.6972288067078733,` +
		`"rows":[{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":12288,` +
		`"Layout":0,"WinogradE":0},"seconds":0.00016914222174496644,"gflops":0.8717870587175741,"ok":true},` +
		`{"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":1,"ThreadsY":1,"ThreadsZ":1,"SharedPerBlock":384,` +
		`"Layout":2,"WinogradE":0},"seconds":0.000054669444295302014,"gflops":2.6972288067078733,"ok":true}],` +
		`"curve":[0.8717870587175741,2.6972288067078733],"budget":2},` +
		`{"arch":"V100","kind":"winograd","shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":16,"Hker":3,"Wker":3,` +
		`"Stride":1,"Pad":1,"Groups":0},"config":{"TileX":4,"TileY":4,"TileZ":1,"ThreadsX":4,"ThreadsY":4,"ThreadsZ":1,` +
		`"SharedPerBlock":12288,"Layout":0,"WinogradE":4},"seconds":0.000013615978523489932,"gflops":65.76743628488597,` +
		`"rows":[{"config":{"TileX":2,"TileY":2,"TileZ":1,"ThreadsX":2,"ThreadsY":2,"ThreadsZ":1,"SharedPerBlock":12288,` +
		`"Layout":0,"WinogradE":2},"seconds":0.00008283389637583892,"gflops":13.672470444482697,"ok":true},` +
		`{"config":{"TileX":4,"TileY":4,"TileZ":1,"ThreadsX":4,"ThreadsY":4,"ThreadsZ":1,"SharedPerBlock":12288,` +
		`"Layout":0,"WinogradE":4},"seconds":0.000013615978523489932,"gflops":65.76743628488597,"ok":true}],` +
		`"curve":[13.672470444482697,65.76743628488597],"budget":2}]}}`
)

// A .handoff sidecar written before format 3 restores its queue: the
// fields format 3 dropped decode away, and each parked entry equals the one
// the engine stores today for the same search.
func TestHandoffSidecarRestoresV2Entries(t *testing.T) {
	cache := autotune.NewCache()
	var want []autotune.CacheEntry
	for i, kind := range []autotune.Kind{autotune.Direct, autotune.Winograd} {
		s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 8, Win: 8, Cout: 8 * (i + 1), Hker: 3, Wker: 3, Strid: 1, Pad: 1}
		sp, err := autotune.NewSpace(s, memsim.V100, kind, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := autotune.DefaultOptions()
		opts.Budget = 2
		if _, err := autotune.TuneResumed(cache, sp, autotune.KindMeasurer(memsim.V100, s, kind), opts); err != nil {
			t.Fatal(err)
		}
		e, _ := cache.Entry(memsim.V100.Name, kind, s)
		want = append(want, e)
	}

	cfg := Config{Cluster: goldenCluster(), StatePath: filepath.Join(t.TempDir(), "tuned.cache")}
	if err := os.WriteFile(cfg.StatePath+".handoff", []byte(v2HandoffFile), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.cluster.handoff.Snapshot()[goldenPeer]; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored queue:\n got  %+v\n want %+v", got, want)
	}
}

package autotune_test

import (
	"testing"

	"repro/internal/autotune"
	"repro/internal/models"
)

// The memoized serve path stays what it was before the first answer fanned
// its scans out: a repeated ResNet-18 request starts no fan and allocates no
// more than the 27 objects it did when every scan ran serially.
func TestNetworkKindsServePath(t *testing.T) {
	layers := models.ResNet18().NetworkLayers()
	kinds := []autotune.Kind{autotune.Winograd}
	dse := autotune.NewAnalyticDSE(laneArch)
	fans := autotune.CountScanFans(t)
	want, err := dse.NetworkKinds(layers, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if fans() != 1 {
		t.Fatalf("first answer fanned %d times, want 1", fans())
	}
	allocs := testing.AllocsPerRun(50, func() {
		got, err := dse.NetworkKinds(layers, kinds)
		if err != nil || got[0] != want[0] {
			t.Fatalf("memoized answer %+v, %v; want %+v", got[0], err, want[0])
		}
	})
	if allocs > 27 {
		t.Errorf("memoized ResNet-18 answer: %v allocs, want ≤ 27", allocs)
	}
	if fans() != 1 {
		t.Errorf("memoized answers fanned: %d fans in all", fans())
	}
	t.Logf("%v allocs per memoized answer", allocs)
}

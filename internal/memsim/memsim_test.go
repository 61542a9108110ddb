package memsim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCatalogValid(t *testing.T) {
	if len(Catalog) < 4 {
		t.Fatalf("catalog has %d architectures, want >= 4", len(Catalog))
	}
	for _, a := range Catalog {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("V100")
	if err != nil || a.Name != "V100" {
		t.Errorf("ByName(V100)=%v,%v", a, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestValidateRejectsBadArch(t *testing.T) {
	bad := V100
	bad.NumSMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SMs accepted")
	}
	bad = V100
	bad.PeakGFLOPS = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative peak accepted")
	}
}

func TestResidentBlocks(t *testing.T) {
	a := GTX1080Ti
	// Shared-limited: blocks using half the SM's shared memory -> 2 per SM.
	if got := a.ResidentBlocks(a.SharedPerSM/2, 64); got != 2*a.NumSMs {
		t.Errorf("shared-limited residency=%d want %d", got, 2*a.NumSMs)
	}
	// Thread-limited.
	if got := a.ResidentBlocks(16, 1024); got != (a.MaxThreadsPerSM/1024)*a.NumSMs {
		t.Errorf("thread-limited residency=%d", got)
	}
	// Oversized block fits nowhere.
	if got := a.ResidentBlocks(a.SharedPerSM+1, 64); got != 0 {
		t.Errorf("oversized block residency=%d want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddGlobalLoads(1)
				c.AddFlops(2)
			}
		}()
	}
	wg.Wait()
	if c.GlobalLoads() != 8000 || c.Flops() != 16000 {
		t.Errorf("lost updates: loads=%d flops=%d", c.GlobalLoads(), c.Flops())
	}
}

func TestBlockAccounting(t *testing.T) {
	var c Counter
	b := NewBlock(&c, 64)
	tile := b.Alloc(16)
	src := make([]float32, 16)
	for i := range src {
		src[i] = float32(i)
	}
	b.LoadGlobal(tile, src)
	if c.GlobalLoads() != 16 || c.SharedStores() != 16 {
		t.Errorf("load counts: %v", c.Snapshot())
	}
	if tile[5] != 5 {
		t.Error("data not copied")
	}
	dst := make([]float32, 16)
	b.StoreGlobal(dst, tile)
	if c.GlobalStores() != 16 || c.SharedLoads() != 16 {
		t.Errorf("store counts: %v", c.Snapshot())
	}
	if dst[7] != 7 {
		t.Error("data not stored")
	}
	if c.GlobalIO() != 32 {
		t.Errorf("GlobalIO=%d want 32", c.GlobalIO())
	}
}

func TestBlockStrided(t *testing.T) {
	var c Counter
	b := NewBlock(&c, 8)
	dst := b.Alloc(3)
	src := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	b.LoadGlobalStrided(dst, src, 1, 3, 3)
	for i, v := range []float32{1, 4, 7} {
		if dst[i] != v {
			t.Errorf("dst[%d]=%v want %v", i, dst[i], v)
		}
	}
	if c.GlobalLoads() != 3 {
		t.Errorf("strided loads=%d want 3", c.GlobalLoads())
	}
}

func TestBlockOverflowPanics(t *testing.T) {
	var c Counter
	b := NewBlock(&c, 8)
	b.Alloc(6)
	defer func() {
		if recover() == nil {
			t.Error("expected shared-memory overflow panic")
		}
	}()
	b.Alloc(3)
}

func TestBlockReset(t *testing.T) {
	var c Counter
	b := NewBlock(&c, 8)
	b.Alloc(8)
	b.Reset()
	if b.Used() != 0 {
		t.Errorf("Used=%d after reset", b.Used())
	}
	b.Alloc(8) // must not panic
}

func TestTimeRoofline(t *testing.T) {
	a := V100
	l := Launch{Blocks: 1000, ThreadsPerBlock: 256, SharedPerBlock: 4096}
	ioBound := Counts{GlobalLoads: 1 << 30, Flops: 1}
	computeBound := Counts{GlobalLoads: 1, Flops: 1 << 40}
	ti := a.Time(ioBound, l)
	tc := a.Time(computeBound, l)
	// 2^30 floats = 4 GiB over 900 GB/s ~ 4.8ms.
	if ti < 3e-3 || ti > 10e-3 {
		t.Errorf("io-bound time %v out of range", ti)
	}
	// 2^40 flops at ~14.9 TFLOPS ~ 74ms.
	if tc < 50e-3 || tc > 200e-3 {
		t.Errorf("compute-bound time %v out of range", tc)
	}
}

func TestTimeMonotoneInIO(t *testing.T) {
	a := GTX1080Ti
	l := Launch{Blocks: 512, ThreadsPerBlock: 128, SharedPerBlock: 2048}
	f := func(n1, n2 uint32) bool {
		lo, hi := int64(n1%1000000), int64(n2%1000000)
		if lo > hi {
			lo, hi = hi, lo
		}
		base := Counts{Flops: 1000}
		cLo, cHi := base, base
		cLo.GlobalLoads = lo
		cHi.GlobalLoads = hi
		return a.Time(cLo, l) <= a.Time(cHi, l)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimePenalizesBadLaunch(t *testing.T) {
	a := V100
	c := Counts{GlobalLoads: 1 << 20, Flops: 1 << 28}
	good := Launch{Blocks: 2048, ThreadsPerBlock: 256, SharedPerBlock: 4096}
	oneBlock := Launch{Blocks: 1, ThreadsPerBlock: 256, SharedPerBlock: 4096}
	tinyThreads := Launch{Blocks: 2048, ThreadsPerBlock: 4, SharedPerBlock: 4096}
	if a.Time(c, oneBlock) <= a.Time(c, good) {
		t.Error("single-block launch not slower than saturating launch")
	}
	if a.Time(c, tinyThreads) <= a.Time(c, good) {
		t.Error("4-thread blocks not slower than 256-thread blocks")
	}
	huge := Launch{Blocks: 64, ThreadsPerBlock: 256, SharedPerBlock: a.SharedPerSM + 1}
	if !math.IsInf(a.Time(c, huge), 1) {
		t.Error("unschedulable block got finite time")
	}
	if !math.IsInf(a.Time(c, Launch{}), 1) {
		t.Error("empty launch got finite time")
	}
}

func TestMaxSharedPerBlock(t *testing.T) {
	for _, a := range Catalog {
		if a.MaxSharedPerBlock() != a.SharedPerSM/2 {
			t.Errorf("%s: Sb limit %d != Ssm/2", a.Name, a.MaxSharedPerBlock())
		}
	}
}

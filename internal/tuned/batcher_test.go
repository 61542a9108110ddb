package tuned

import (
	"sync"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/memsim"
)

// groupKey spells out the request fields a job's merge key derives from.
type groupKey struct {
	arch     string
	budget   int
	seed     int64
	winograd bool
}

func jobWithKey(k groupKey) *tuneJob {
	req := &request{arch: memsim.Arch{Name: k.arch}, winograd: k.winograd,
		tune: autotune.Options{Budget: k.budget, Seed: k.seed}}
	return &tuneJob{req: req, done: make(chan struct{})}
}

// groupJobs must partition a round by merge key while preserving arrival
// order inside each group — the order decides which layer tunes cold as a
// family's warm-schedule representative, so it is part of determinism.
func TestGroupJobsPartitionsByKeyPreservingOrder(t *testing.T) {
	k1 := groupKey{arch: "V100", budget: 16, seed: 1, winograd: true}
	k2 := groupKey{arch: "V100", budget: 16, seed: 2, winograd: true}
	k3 := groupKey{arch: "TitanX", budget: 16, seed: 1, winograd: true}
	jobs := []*tuneJob{jobWithKey(k1), jobWithKey(k2), jobWithKey(k1), jobWithKey(k3), jobWithKey(k1)}

	groups := groupJobs(jobs)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	// First-arrival order between groups, arrival order within each.
	if len(groups[0]) != 3 || groups[0][0] != jobs[0] || groups[0][1] != jobs[2] || groups[0][2] != jobs[4] {
		t.Errorf("group for %+v broke arrival order", k1)
	}
	if len(groups[1]) != 1 || groups[1][0] != jobs[1] {
		t.Errorf("group for %+v wrong", k2)
	}
	if len(groups[2]) != 1 || groups[2][0] != jobs[3] {
		t.Errorf("group for %+v wrong", k3)
	}
}

// Jobs submitted within one window run as one round; the next submission
// opens a fresh round.
func TestBatcherCollectsOneWindow(t *testing.T) {
	var mu sync.Mutex
	var rounds [][]*tuneJob
	roundDone := make(chan int, 8)
	b := newBatcher(50*time.Millisecond, func(jobs []*tuneJob) {
		mu.Lock()
		rounds = append(rounds, jobs)
		n := len(rounds)
		mu.Unlock()
		roundDone <- n
	})

	k := groupKey{arch: "V100"}
	first := []*tuneJob{jobWithKey(k), jobWithKey(k), jobWithKey(k)}
	for _, j := range first {
		b.submit(j)
	}
	select {
	case <-roundDone:
	case <-time.After(5 * time.Second):
		t.Fatal("first round never ran")
	}

	b.submit(jobWithKey(k))
	select {
	case <-roundDone:
	case <-time.After(5 * time.Second):
		t.Fatal("second round never ran")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(rounds) != 2 || len(rounds[0]) != 3 || len(rounds[1]) != 1 {
		sizes := make([]int, len(rounds))
		for i, r := range rounds {
			sizes[i] = len(r)
		}
		t.Fatalf("round sizes %v, want [3 1]", sizes)
	}
	for i, j := range first {
		if rounds[0][i] != j {
			t.Errorf("round 0 job %d out of arrival order", i)
		}
	}
}

package tuned

import (
	"slices"
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

// roundLog is a batcher's run: it records every round, fails the test on an
// empty one, and closes each job's done channel. While hold is set, the next
// round signals started once it is running and blocks until hold closes.
type roundLog struct {
	t       *testing.T
	mu      sync.Mutex
	rounds  [][]*tuneJob
	hold    chan struct{}
	started chan struct{}
}

func (l *roundLog) run(jobs []*tuneJob) {
	if len(jobs) == 0 {
		l.t.Error("run called with an empty round")
	}
	l.mu.Lock()
	l.rounds = append(l.rounds, jobs)
	hold := l.hold
	l.hold = nil
	l.mu.Unlock()
	if hold != nil {
		close(l.started)
		<-hold
	}
	for _, j := range jobs {
		close(j.done)
	}
}

// want fails the test unless the rounds run so far are exactly want, each in
// arrival order.
func (l *roundLog) want(want ...[]*tuneJob) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	same := len(l.rounds) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = slices.Equal(l.rounds[i], want[i])
	}
	if !same {
		got := make([]int, len(l.rounds))
		for i, r := range l.rounds {
			got[i] = len(r)
		}
		l.t.Fatalf("rounds of sizes %v, want %d rounds in arrival order", got, len(want))
	}
}

// ran fails the test unless j's round finished before the call.
func ran(t *testing.T, j *tuneJob, what string) {
	t.Helper()
	select {
	case <-j.done:
	default:
		t.Fatalf("%s: submit returned before the job's round ran", what)
	}
}

// An idle submit runs its round before it returns: no round is in flight,
// so nothing could join it, and the hour-long window is never armed.
func TestBatcherIdleSubmitRunsAtOnce(t *testing.T) {
	log := &roundLog{t: t}
	b := newBatcher(time.Hour, log.run)
	j := jobWithKey(groupKey{arch: "V100"})
	b.submit(j)
	ran(t, j, "idle submit")
	log.want([]*tuneJob{j})
}

// Submissions made while a round is running gather behind it: the first
// arms one window, the others join, and the window's flush runs all three as
// one round in arrival order. Once every round has finished, the batcher is
// idle again and the next submit runs at once.
func TestBatcherGathersBehindARunningRound(t *testing.T) {
	log := &roundLog{t: t, hold: make(chan struct{}), started: make(chan struct{})}
	release := log.hold
	b := newBatcher(time.Hour, log.run)
	armed := make(chan func(), 4) // more than the one window this test may arm
	b.arm = func(flush func()) { armed <- flush }

	k := groupKey{arch: "V100"}
	held := jobWithKey(k)
	heldReturned := make(chan struct{})
	go func() {
		b.submit(held)
		close(heldReturned)
	}()
	select {
	case <-log.started:
	case <-armed:
		t.Fatal("an idle submit armed a window instead of running its round")
	}

	later := []*tuneJob{jobWithKey(k), jobWithKey(k), jobWithKey(k)}
	for _, j := range later {
		b.submit(j)
	}
	if len(armed) != 1 {
		t.Fatalf("%d windows armed for three submissions behind a running round, want 1", len(armed))
	}
	log.want([]*tuneJob{held})

	(<-armed)() // the window elapses while the held round still runs
	log.want([]*tuneJob{held}, later)
	close(release)
	<-heldReturned

	next := jobWithKey(k)
	b.submit(next)
	ran(t, next, "submit after every round finished")
	log.want([]*tuneJob{held}, later, []*tuneJob{next})
	if len(armed) != 0 {
		t.Errorf("an idle submit armed a window")
	}
}

// A run that panics still retires its round, so the batcher does not stay
// busy and leave every later request waiting out the window.
func TestBatcherPanickingRunLeavesItIdle(t *testing.T) {
	log := &roundLog{t: t}
	panicked := false
	b := newBatcher(time.Hour, func(jobs []*tuneJob) {
		if !panicked {
			panicked = true
			panic("run failed")
		}
		log.run(jobs)
	})
	k := groupKey{arch: "V100"}
	first := jobWithKey(k)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not reach the submitter")
			}
		}()
		b.submit(first)
	}()
	next := jobWithKey(k)
	b.submit(next)
	ran(t, next, "submit after a panicking round")
}

// Concurrent submitters against a real, short window: every job runs in
// exactly one round and no round is empty. Run under -race this shakes the
// in-flight count.
func TestBatcherConcurrentSubmitters(t *testing.T) {
	log := &roundLog{t: t}
	b := newBatcher(100*time.Microsecond, log.run)
	const submitters, each = 8, 25
	k := groupKey{arch: "V100"}
	var wg sync.WaitGroup
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				j := jobWithKey(k)
				b.submit(j)
				<-j.done
			}
		}()
	}
	wg.Wait()

	seen := make(map[*tuneJob]bool)
	for _, r := range log.rounds {
		for _, j := range r {
			if seen[j] {
				t.Fatal("a job ran in two rounds")
			}
			seen[j] = true
		}
	}
	if len(seen) != submitters*each {
		t.Fatalf("%d jobs ran, want %d", len(seen), submitters*each)
	}
}

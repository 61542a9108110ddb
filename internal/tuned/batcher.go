package tuned

import (
	"context"
	"sync"
	"time"

	"repro/internal/autotune"
)

// The batcher is how strangers' layers warm-start each other. Requests
// that arrive while a round is already tuning are collected for one
// admission window and — per group of compatible tuning options — merged
// into a single TuneNetwork call: the concatenated layer list deduplicates
// identical shapes across callers (identical concurrent requests collapse
// to one search), and with warm-starting enabled every network in the batch
// starts from the cache's verdicts, and on a cache holding none of a kind
// the one cold search per layer family the batch runs first seeds every
// other client's searches. Each request gets back exactly its own slice of the merged
// verdict list. A request that finds no round in flight has no one to wait
// for, so its round runs at once.

// tuneJob is one admitted request waiting on its batch.
type tuneJob struct {
	req *request

	verdicts []autotune.LayerVerdict
	err      error
	done     chan struct{}
}

// batcher hands rounds of jobs to run. A job that opens a round while no
// round is running runs it at once, in the submitting goroutine: an idle
// server adds no latency. A job that opens a round while another is running
// arms the round's window, and everything that arrives before it elapses
// joins, so a busy server amortizes the model-transfer benefit across
// everything that arrived meanwhile. A zero window degenerates to one batch
// per request.
type batcher struct {
	run func([]*tuneJob)
	// arm schedules a busy round's flush one window after the round opens;
	// tests substitute it to fire the window themselves.
	arm func(flush func())

	mu       sync.Mutex
	pending  []*tuneJob // the open round, non-empty iff its opener has yet to flush it
	inflight int        // rounds flushed whose run has not returned
}

func newBatcher(window time.Duration, run func([]*tuneJob)) *batcher {
	return &batcher{run: run, arm: func(flush func()) { time.AfterFunc(window, flush) }}
}

// submit enqueues a job; if the job opened the round it either flushes the
// round itself (no round in flight) or arms the round's window. The job's
// done channel closes when its batch finishes.
func (b *batcher) submit(j *tuneJob) {
	b.mu.Lock()
	opened := len(b.pending) == 0
	idle := opened && b.inflight == 0
	b.pending = append(b.pending, j)
	b.mu.Unlock()
	switch {
	case idle:
		b.flush()
	case opened:
		b.arm(b.flush)
	}
}

// flush closes the current round and runs it. Only a round's opener calls
// it — at once or from the round's timer — and no other round can open
// until it has, so the round it takes is its own and never empty. A job
// arriving between the opening and the flush joins the round.
func (b *batcher) flush() {
	b.mu.Lock()
	jobs := b.pending
	b.pending = nil
	b.inflight++
	b.mu.Unlock()
	// Deferred, so a panicking run cannot leave the batcher busy forever.
	defer func() {
		b.mu.Lock()
		b.inflight--
		b.mu.Unlock()
	}()
	b.run(jobs)
}

// groupJobs partitions a round into its mergeable groups (request.groupKey),
// preserving arrival order within each group (the order decides which layer
// of a family tunes cold as the warm schedule's representative, so it must
// be the deterministic concatenation order).
func groupJobs(jobs []*tuneJob) [][]*tuneJob {
	idx := make(map[string]int)
	var groups [][]*tuneJob
	for _, j := range jobs {
		key := j.req.groupKey()
		i, ok := idx[key]
		if !ok {
			i = len(groups)
			idx[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], j)
	}
	return groups
}

// runGroup merges one group's layer lists, tunes the union in a single
// TuneNetwork call against cache under the group's shared sweep options,
// and hands each job its own verdicts. ctx bounds the engine: past its
// deadline every still-running search reports best-so-far and the verdicts
// come back marked Partial.
func runGroup(ctx context.Context, cache *autotune.Cache, group []*tuneJob, opts autotune.NetworkOptions) {
	var merged []autotune.NetworkLayer
	for _, j := range group {
		merged = append(merged, j.req.layers...)
	}
	verdicts, err := autotune.TuneNetworkContext(ctx, group[0].req.arch, merged, cache, opts)
	off := 0
	for _, j := range group {
		if err != nil {
			j.err = err
		} else {
			j.verdicts = verdicts[off : off+len(j.req.layers)]
		}
		off += len(j.req.layers)
		close(j.done)
	}
}

package tuned

import (
	"context"
	"sync"
	"time"

	"repro/internal/autotune"
)

// The batcher is how strangers' layers warm-start each other. Requests
// admitted within one admission window are collected and — per group of
// compatible tuning options — merged into a single TuneNetwork call: the
// concatenated layer list deduplicates identical shapes across callers
// (identical concurrent requests collapse to one search), and with
// warm-starting enabled every network in the batch draws on one shared
// transfer pool, so a layer family one client already paid to tune cold
// warm-starts every other client's members of that family. Each request
// gets back exactly its own slice of the merged verdict list.

// tuneJob is one admitted request waiting on its batch.
type tuneJob struct {
	req *request

	verdicts []autotune.LayerVerdict
	err      error
	done     chan struct{}
}

// batcher collects jobs for one admission window, then hands the whole
// round to run. The window opens when the first job of a round arrives, so
// an idle server adds at most window of latency and a busy one amortizes
// the model-transfer benefit across everything that arrived meanwhile. A
// zero window degenerates to one batch per request.
type batcher struct {
	window time.Duration
	run    func([]*tuneJob)

	mu      sync.Mutex
	pending []*tuneJob // the open round; its timer is armed iff non-empty
}

func newBatcher(window time.Duration, run func([]*tuneJob)) *batcher {
	return &batcher{window: window, run: run}
}

// submit enqueues a job and arms the round timer if this job opened the
// round. The job's done channel closes when its batch finishes.
func (b *batcher) submit(j *tuneJob) {
	b.mu.Lock()
	opened := len(b.pending) == 0
	b.pending = append(b.pending, j)
	b.mu.Unlock()
	if opened {
		time.AfterFunc(b.window, b.flush)
	}
}

// flush closes the current round and runs it. Only a round's own timer
// calls it, so the round is never empty.
func (b *batcher) flush() {
	b.mu.Lock()
	jobs := b.pending
	b.pending = nil
	b.mu.Unlock()
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

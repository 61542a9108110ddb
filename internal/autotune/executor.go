package autotune

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the measurement executor of the engine: each iteration the
// tuner hands it one batch of candidate configurations and it fans the
// measurements out across Workers goroutines, the way production
// auto-tuners (TVM's RPC runner, Bolt) parallelize on-device measurement
// to hide its latency. Results come back indexed by submission order, so
// the engine's bookkeeping — and therefore the whole tuning run — is
// bit-identical for any worker count.

// fanIndexed calls fn(0) … fn(n-1), fanning the calls across up to workers
// goroutines (serially for workers <= 1). It is the worker-pool primitive
// shared by the measurement executor and the network-level tuner.
func fanIndexed(n, workers int, fn func(int)) {
	fanIndexedCtx(context.Background(), n, workers, fn)
}

// fanIndexedCtx is fanIndexed with cooperative cancellation: workers stop
// claiming new indexes once ctx is done, and the number of completed calls
// is returned. Because indexes are claimed from one monotonic counter and
// every claimed index runs to completion, the completed set is always the
// contiguous prefix 0 … done-1 — which is what lets a cancelled tuning
// batch book a deterministic prefix of its outcomes and report a coherent
// partial verdict instead of a hole-ridden one. An in-flight call is never
// interrupted (a real device measurement cannot be recalled mid-run);
// cancellation takes effect at the next claim.
func fanIndexedCtx(ctx context.Context, n, workers int, fn func(int)) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			fn(i)
		}
		return n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	done := int(next.Load())
	if done > n {
		done = n
	}
	return done
}

// sleepCtx waits for d, returning early (false) if ctx is cancelled first.
// It is the interruptible wait behind retry backoff.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

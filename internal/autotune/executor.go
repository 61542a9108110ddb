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
// to hide its latency. Outcomes are booked in submission order, so the
// engine's bookkeeping — and therefore the whole tuning run — is
// bit-identical for any worker count. A proof may end a batch at a booking:
// the outcomes past it are never booked, whatever the worker count.

// fanIndexed calls fn(0) … fn(n-1), fanning the calls across up to workers
// goroutines (serially for workers <= 1). It is the worker-pool primitive
// of the network-level tuner and the analytic tier's scans.
func fanIndexed(n, workers int, fn func(int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fanBooked runs run(0) … run(n-1) across up to maxWorkers goroutines and books
// the outcomes on the calling goroutine in index order: book(i) is called
// once run(i) has returned and book(0) … book(i-1) have returned true. A
// booking that returns false ends the fan there. Workers stop claiming new
// indexes once ctx is done or the fan has ended, and the number of bookings
// is returned.
//
// Indexes are claimed in order and every claimed one runs to completion (a
// real device measurement cannot be recalled mid-run), so under
// cancellation every claimed index is booked, a contiguous prefix — which
// is what lets a cancelled tuning batch report a coherent partial verdict
// instead of a hole-ridden one. A claim waits while workers claimed indexes
// are still unbooked, so when book(i) ends the fan at most workers − 1
// outcomes past i have run; they are dropped unbooked. Where book alone
// ends the fan, the booked prefix is the same at any worker count.
func fanBooked(ctx context.Context, n, maxWorkers int, run func(int), book func(int) bool) int {
	workers := min(maxWorkers, n) // never reassigned, so the workers capture it by value
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			run(i)
			if !book(i) {
				return i + 1
			}
		}
		return n
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		finished = make([]bool, n)
		claimed  int  // indexes claimed so far, under mu
		booked   int  // indexes booked so far, under mu
		ended    bool // a booking ended the fan, under mu
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for !ended && claimed < n && ctx.Err() == nil {
				if claimed-booked >= workers {
					cond.Wait()
					continue
				}
				i := claimed
				claimed++
				mu.Unlock()
				run(i)
				mu.Lock()
				finished[i] = true
				cond.Broadcast()
			}
			cond.Broadcast() // a cancelled worker may leave nothing to book
		}()
	}
	mu.Lock()
	for booked < n && !ended && (booked < claimed || ctx.Err() == nil) {
		if booked == claimed || !finished[booked] {
			cond.Wait()
			continue
		}
		i := booked
		mu.Unlock()
		more := book(i)
		mu.Lock()
		booked++
		ended = !more
		cond.Broadcast()
	}
	mu.Unlock()
	wg.Wait()
	return booked
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

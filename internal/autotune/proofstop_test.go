package autotune

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conv"
)

// proofCase is a search that a proof ends mid-batch or before a later batch
// runs, with the booking (1-based) the proof holds at first.
type proofCase struct {
	name string
	sp   *Space
	mm   Measurer
	opts Options
	// at is the first booking of tr the proof holds at.
	at   func(tr *Trace) int
	stop StopReason
	// asks, when non-nil, records the follower's reads of its lead.
	asks *[]int
}

// certifiedAt is the first booking whose measurement meets sp's minimum
// tight floor: the incumbent then attains its own floor and lies at or below
// every floor of the space, so the certificate holds there and not before.
func certifiedAt(sp *Space) func(*Trace) int {
	m := sp.MinFloor()
	return func(tr *Trace) int {
		for i, h := range tr.History {
			if h.OK && h.M.Seconds <= m {
				return i + 1
			}
		}
		return 0
	}
}

// firstValid is the first booking of tr that measured.
func firstValid(tr *Trace) int {
	for i, h := range tr.History {
		if h.OK {
			return i + 1
		}
	}
	return 0
}

func proofCases(t *testing.T) []proofCase {
	t.Helper()
	var cases []proofCase

	// A warm search whose first warm seed is the space's certified optimum:
	// the Section-5 seed does not certify, the warm seed batch does at its
	// first booking, and its other seeds are never booked.
	{
		sp := mustSpace(t, true)
		mm := KindMeasurer(arch, layer(), Direct)
		ref, err := Tune(sp, mm, smallOpts(120, 11))
		if err != nil || ref.Stop != StopCertified {
			t.Fatalf("reference search: %v, stop %v; want a certified optimum", err, ref.Stop)
		}
		seeds := []conv.Config{ref.Best}
		for _, h := range ref.History[:7] {
			seeds = append(seeds, h.Config)
		}
		opts := DefaultOptions()
		opts.Seed = 5
		opts.warm = &warmStart{Seeds: seeds}
		cases = append(cases, proofCase{name: "warm seed certified", sp: sp, mm: mm, opts: opts,
			at: certifiedAt(sp), stop: StopCertified})
	}

	// A Direct-led implicit-GEMM follower whose lead's incumbent falls below
	// every floor of its space only once the lead has made 2·waiveAt
	// measurements: the waiver holds from the follower's booking waiveAt on,
	// in the middle of its initial random batch.
	{
		const waiveAt = 10
		s := dwLayer.Shape
		direct, err := NewSpace(s, arch, Direct, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		lead, err := Tune(direct, KindMeasurer(arch, s, Direct), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSpace(s, arch, ImplicitGEMM, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if !(lead.BestM.Seconds < sp.MinFloor()) {
			t.Fatalf("Direct verdict %v is not below implicit GEMM's minimum floor %v", lead.BestM.Seconds, sp.MinFloor())
		}
		asks := new([]int)
		opts := DefaultOptions()
		opts.Seed = 0
		opts.leadDirect = true
		opts.lead = func(n int) float64 {
			*asks = append(*asks, n)
			if n < leadAhead*waiveAt {
				return math.Inf(1)
			}
			return lead.BestM.Seconds
		}
		at := func(tr *Trace) int { return max(firstValid(tr), waiveAt) }
		cases = append(cases, proofCase{name: "Direct-led waiver", sp: sp, mm: KindMeasurer(arch, s, ImplicitGEMM),
			opts: opts, at: at, stop: StopGap, asks: asks})
	}

	// A cold FFT search certified by its Section-5 seed: the initial random
	// batch never runs.
	{
		s := goldenShapes[0].s
		sp, err := NewSpace(s, arch, FFT, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Seed = 3
		cases = append(cases, proofCase{name: "seed certified", sp: sp, mm: KindMeasurer(arch, s, FFT),
			opts: opts, at: certifiedAt(sp), stop: StopCertified})
	}
	return cases
}

// The certificate and a Direct-led follower's waiver end a search at the
// booking that proves them: nothing of the batch past it, and no later
// batch, is measured at one worker or booked at any worker count. The trace
// is the same at 1, 2, 4 and 8 workers, the stop's fields agree with each
// other, and a stop booked at the budget's last measurement stays the
// proof's.
func TestProofStopsAtItsBooking(t *testing.T) {
	for _, c := range proofCases(t) {
		var ref *Trace
		for _, workers := range []int{1, 2, 4, 8} {
			var calls atomic.Int64
			o := c.opts
			o.Workers = workers
			if c.asks != nil {
				*c.asks = (*c.asks)[:0]
			}
			tr, err := Tune(c.sp, func(cfg conv.Config) (Measurement, bool) {
				calls.Add(1)
				return c.mm(cfg)
			}, o)
			if err != nil {
				t.Fatal(err)
			}
			if msg := StopMismatch(tr); msg != "" {
				t.Errorf("%s workers=%d: %s", c.name, workers, msg)
			}
			if c.asks != nil {
				// The lead is read once per booking from the first valid
				// one, at leadAhead times the follower's measurements.
				var want []int
				for m := firstValid(tr); m <= tr.Measurements; m++ {
					want = append(want, leadAhead*m)
				}
				if !slices.Equal(*c.asks, want) {
					t.Errorf("%s workers=%d: lead read at %v, want %v", c.name, workers, *c.asks, want)
				}
			}
			if workers == 1 {
				ref = tr
				at := c.at(tr)
				if tr.Stop != c.stop || tr.Measurements != at || tr.Measurements >= tr.Budget {
					t.Fatalf("%s: stopped on %v after %d of %d measurements, want %v at booking %d",
						c.name, tr.Stop, tr.Measurements, tr.Budget, c.stop, at)
				}
				if n := calls.Load(); n != int64(tr.Measurements) {
					t.Errorf("%s: %d measurer calls for %d measurements", c.name, n, tr.Measurements)
				}
				continue
			}
			if n := calls.Load(); n > int64(tr.Measurements+workers-1) {
				t.Errorf("%s workers=%d: %d measurer calls for %d measurements", c.name, workers, n, tr.Measurements)
			}
			if !traceEqual(ref, tr) {
				t.Errorf("%s workers=%d: trace diverges (stop %v after %d against %v, waived %t; want %v after %d against %v, waived %t)",
					c.name, workers, tr.Stop, tr.Measurements, tr.GapRef, tr.Waived, ref.Stop, ref.Measurements, ref.GapRef, ref.Waived)
			}
		}
		if c.asks != nil {
			// The budget sets the initial random batch's size; only the
			// certificate cases run the same measurements at a lower one.
			continue
		}
		o := c.opts
		o.Budget = ref.Measurements
		tr, err := Tune(c.sp, c.mm, o)
		if err != nil {
			t.Fatal(err)
		}
		tr.Budget = ref.Budget
		if !traceEqual(ref, tr) {
			t.Errorf("%s at budget %d: stopped on %v after %d, want the proof's %v",
				c.name, o.Budget, tr.Stop, tr.Measurements, ref.Stop)
		}
	}
}

// fanBooked books in index order on the calling goroutine, ends at the
// booking that returns false with at most workers − 1 runs past it, and under
// cancellation books exactly the runs it started.
func TestFanBookedEndsAtItsBooking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n, workers := 1+rng.Intn(40), 1+rng.Intn(8)
		end, cancelAt := rng.Intn(n+1), rng.Intn(2*n)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(50)) * time.Microsecond
		}
		ctx, cancel := context.WithCancel(context.Background())
		var runs atomic.Int64
		var cancelled atomic.Bool
		var booked []int
		got := fanBooked(ctx, n, workers, func(i int) {
			runs.Add(1)
			if i == cancelAt {
				cancelled.Store(true)
				cancel()
			}
			time.Sleep(delays[i])
		}, func(i int) bool {
			booked = append(booked, i)
			return i != end
		})
		cancel()
		want := min(n, end+1)
		if cancelled.Load() {
			// Runs are claimed in index order and every one started
			// completes, so a cancelled fan books every run it started up
			// to the end.
			want = min(want, int(runs.Load()))
		}
		if got != want || len(booked) != got || int(runs.Load()) > got+workers-1 {
			t.Fatalf("n=%d workers=%d end=%d cancel=%d: %d booked (%d calls), %d runs; want %d booked",
				n, workers, end, cancelAt, got, len(booked), runs.Load(), want)
		}
		for i, b := range booked {
			if b != i {
				t.Fatalf("n=%d workers=%d: booked %v, want index order", n, workers, booked)
			}
		}
	}
}

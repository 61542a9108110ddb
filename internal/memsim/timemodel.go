package memsim

import "math"

// Launch describes the execution configuration of one simulated kernel,
// mirroring the tunable parameters of the paper's Table 1.
type Launch struct {
	// Blocks is the number of thread blocks in the grid.
	Blocks int
	// ThreadsPerBlock is Nxt·Nyt·Nzt.
	ThreadsPerBlock int
	// SharedPerBlock is the shared memory Sb allocated to each block, in
	// floats.
	SharedPerBlock int
	// BandwidthEff in (0, 1] scales the off-chip bandwidth actually
	// attained, modeling access-pattern (layout/coalescing) efficiency.
	// Zero means 1.
	BandwidthEff float64
}

// schedule returns the unconditional launch-plus-waves term of the time
// model — LaunchOverhead + ceil(Blocks/resident)·WaveLatency — and the
// resident block count it derives from. resident is 0 when the block does
// not fit an SM at all (Time is +Inf there); seconds is 0 in that case. It
// is the Sched term of Rates, through which Time, the Explain breakdown and
// the tuner's lower-bound floors all read it.
//
// It, Rates and Seconds take the architecture by pointer although Arch's
// other methods take it by value: Arch is thirteen words, these run once per
// measurement and once per proposal, and each by-value call — inlined or not
// — copied all of it (BoundSeconds 99 → 117 ns by value, 87 ns by pointer).
func (a *Arch) schedule(l Launch) (seconds float64, resident int) {
	if l.Blocks < 1 || l.ThreadsPerBlock < 1 {
		return 0, 0
	}
	resident = a.ResidentBlocks(l.SharedPerBlock, l.ThreadsPerBlock)
	if resident == 0 {
		return 0, 0
	}
	waves := (l.Blocks + resident - 1) / resident
	return a.LaunchOverhead + float64(waves)*a.WaveLatency, resident
}

// Rates are the launch-dependent terms of the time model: everything a
// launch geometry decides about a kernel's time before any count is known.
type Rates struct {
	// Sched is the unconditional launch-plus-waves term (schedule).
	Sched float64
	// Hide in (0, 1] is the latency-hiding factor: the fraction of peak
	// arithmetic reachable with the resident thread count.
	Hide float64
	// Eff in (0, 1] is the fraction of the off-chip bandwidth attained.
	Eff float64
}

// Rates derives the launch-dependent terms of l. ok is false when the
// launch cannot run — it is empty, or its block does not fit on an SM — and
// its time is +Inf whatever it computes.
func (a *Arch) Rates(l Launch) (r Rates, ok bool) {
	sched, resident := a.schedule(l)
	if resident == 0 {
		return Rates{}, false
	}
	hide := a.hide(min(l.Blocks, resident)*l.ThreadsPerBlock, l.ThreadsPerBlock)
	if hide <= 0 {
		return Rates{}, false
	}
	eff := l.BandwidthEff
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return Rates{Sched: sched, Hide: hide, Eff: eff}, true
}

// hide is the latency-hiding factor of active resident threads in blocks of
// threadsPerBlock: resident threads per SM against ThreadsForPeak, and a
// scheduling-efficiency penalty on very small blocks. It is non-decreasing
// in both arguments.
func (a *Arch) hide(active, threadsPerBlock int) float64 {
	h := min(1, float64(active)/float64(a.NumSMs)/float64(a.ThreadsForPeak))
	if threadsPerBlock < 32 {
		h *= float64(threadsPerBlock) / 32
	}
	return h
}

// RatesBound returns rates no worse than Rates of any launch that shares l's
// Blocks, SharedPerBlock and BandwidthEff and runs between 1 and
// l.ThreadsPerBlock threads per block: Sched at one thread per block (the
// most resident blocks, so the fewest waves), the same Eff, and a Hide at
// least that of every such thread count t, because the active threads
// min(Blocks, resident(t))·t never exceed Blocks·l.ThreadsPerBlock, the
// shared-memory residency times l.ThreadsPerBlock, or the device's resident
// thread capacity. ok is false when no such launch can run.
func (a *Arch) RatesBound(l Launch) (r Rates, ok bool) {
	most := l.ThreadsPerBlock
	l.ThreadsPerBlock = 1
	if r, ok = a.Rates(l); !ok || most < 1 {
		return Rates{}, false
	}
	active := min(l.Blocks, a.ResidentBlocks(l.SharedPerBlock, 0)) * most
	r.Hide = a.hide(min(active, a.NumSMs*a.MaxThreadsPerSM), most)
	return r, true
}

// terms are the three roofline terms of Seconds. A zero operand's term is
// zero; the shared one is skipped outright because the floors pass 0 for it
// once per enumerated configuration of an analytic scan.
func (a *Arch) terms(r Rates, globalBytes, sharedBytes, flops float64) (global, shared, compute float64) {
	global = globalBytes / (a.BandwidthGBs * 1e9 * r.Eff)
	if sharedBytes != 0 {
		shared = sharedBytes /
			(a.SharedBandwidthGBs * 1e9 * max(a.RegisterTileReuse, 1) * max(r.Hide, 0.25))
	}
	compute = flops / (a.PeakGFLOPS * 1e9 * r.Hide)
	return global, shared, compute
}

// Seconds is the time model, stated once:
//
//	t = launch + waves·waveLatency + max(t_global, t_shared, t_compute)
//
// where t_global is off-chip traffic over the attained bandwidth, t_shared
// is on-chip traffic over aggregate shared bandwidth scaled by register
// reuse and occupancy, and t_compute is flops over peak scaled by how well
// the launch hides latency. The model is a roofline: its purpose is to make
// data movement and occupancy — the two quantities the paper tunes —
// determine performance.
//
// Seconds is non-decreasing in each of its three operands and
// non-increasing in r.Hide and r.Eff. That is the whole admissibility
// argument of the tuner's lower-bound floors: Time applies it to a kernel's
// measured counts, a floor applies it to lower bounds on those counts at
// the same — or at ideal (Hide = Eff = 1) — rates, so floor ≤ measurement
// holds by construction.
func (a *Arch) Seconds(r Rates, globalBytes, sharedBytes, flops float64) float64 {
	return r.Sched + max(a.terms(r, globalBytes, sharedBytes, flops))
}

// bytesPerFloat converts counts, kept in float32 elements, to traffic.
const bytesPerFloat = 4

// Time converts measured counts plus a launch configuration into a
// deterministic simulated runtime in seconds: Seconds at the launch's own
// Rates, or +Inf for a launch that cannot run.
func (a Arch) Time(c Counts, l Launch) float64 {
	r, ok := a.Rates(l)
	if !ok {
		return math.Inf(1)
	}
	return a.Seconds(r, float64(c.GlobalIO())*bytesPerFloat, float64(c.SharedIO())*bytesPerFloat, float64(c.Flops))
}

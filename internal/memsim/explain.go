package memsim

import (
	"fmt"
	"math"
)

// Bottleneck names the roofline term that dominated a simulated kernel.
type Bottleneck string

// The possible dominating terms of the time model.
const (
	GlobalBound  Bottleneck = "global-memory"
	SharedBound  Bottleneck = "shared-memory"
	ComputeBound Bottleneck = "compute"
	LaunchBound  Bottleneck = "launch-overhead"
	Invalid      Bottleneck = "invalid-launch"
)

// Breakdown explains where a kernel's simulated time went.
type Breakdown struct {
	Total    float64 // seconds
	Global   float64 // off-chip transfer term
	Shared   float64 // on-chip transfer term
	Compute  float64 // arithmetic term
	Overhead float64 // launch + wave scheduling
	Bound    Bottleneck
	// Occupancy is the attained latency-hiding fraction in [0, 1].
	Occupancy float64
}

func (b Breakdown) String() string {
	return fmt.Sprintf("%.3gs total: %s-bound (global %.3gs, shared %.3gs, compute %.3gs, overhead %.3gs, occupancy %.0f%%)",
		b.Total, b.Bound, b.Global, b.Shared, b.Compute, b.Overhead, 100*b.Occupancy)
}

// Explain reads the time model's individual terms for a measured kernel —
// the same Rates and roofline terms Time sums, so Total is Time bit for bit
// — and identifies the binding constraint: the diagnostic behind "why is
// this configuration slow".
func (a Arch) Explain(c Counts, l Launch) Breakdown {
	r, ok := a.Rates(l)
	if !ok {
		return Breakdown{Total: math.Inf(1), Bound: Invalid}
	}
	global, shared, flops := float64(c.GlobalIO())*bytesPerFloat, float64(c.SharedIO())*bytesPerFloat, float64(c.Flops)
	b := Breakdown{Total: a.Seconds(r, global, shared, flops), Overhead: r.Sched, Occupancy: r.Hide}
	b.Global, b.Shared, b.Compute = a.terms(r, global, shared, flops)

	b.Bound = ComputeBound
	top := b.Compute
	if b.Global > top {
		b.Bound, top = GlobalBound, b.Global
	}
	if b.Shared > top {
		b.Bound, top = SharedBound, b.Shared
	}
	if b.Overhead > top {
		b.Bound = LaunchBound
	}
	return b
}

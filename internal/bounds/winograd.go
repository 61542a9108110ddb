package bounds

import (
	"math"

	"repro/internal/shapes"
)

// WinogradSteps returns the four-step φ/ψ description of the Winograd DAG
// (Lemmas 4.15–4.18) for output tile size e, kernel size r = Hker and fast
// memory parameter s.
func WinogradSteps(shape shapes.ConvShape, e, s int) []Step {
	r := float64(shape.Hker)
	ef := float64(e)
	alpha := ef + r - 1
	a2 := alpha * alpha
	sf := float64(s)

	transform := Step{
		Name: "transform",
		Phi:  func(k float64) float64 { return 6 * k * a2 * a2 / (ef * r) },
		Psi:  func(k float64) float64 { return 3 * k * a2 / (ef * r) },
	}
	eltwise := Step{
		Name: "eltwise",
		Phi:  func(k float64) float64 { return k*math.Sqrt(k) + a2*sf*math.Sqrt(k)/(ef*ef) },
		Psi:  func(k float64) float64 { return k*math.Sqrt(k) + a2*sf*math.Sqrt(k)/(ef*ef) }, // ψ2 = φ2
	}
	chansum := Step{
		Name: "chansum",
		Phi:  func(k float64) float64 { return math.Max(k-1, 0) },
		Psi:  func(k float64) float64 { return math.Min(k/2, sf*a2/(ef*ef)) },
	}
	output := Step{
		Name: "output",
		Phi:  func(k float64) float64 { return math.Min((2*k-1)*ef*ef, (2*a2-1)*sf) },
		Psi:  func(k float64) float64 { return 0 },
	}
	return []Step{transform, eltwise, chansum, output}
}

// WinogradTClosed is Lemma 4.19's closed form
// T(S) = 2·α³/(e·r)·S^{3/2} + 6·α²/(e·r)·S with α = e+r−1.
func WinogradTClosed(shape shapes.ConvShape, e, s int) float64 {
	r := float64(shape.Hker)
	ef := float64(e)
	alpha := ef + r - 1
	sf := float64(s)
	return 2*alpha*alpha*alpha/(ef*r)*sf*math.Sqrt(sf) + 6*alpha*alpha/(ef*r)*sf
}

// WinogradTotalVertices is the Lemma 4.14 vertex count
// 2·Wout·Hout·Cout·Cin·(e+r−1)⁴/e², scaled by batch.
func WinogradTotalVertices(shape shapes.ConvShape, e int) float64 {
	r := float64(shape.Hker)
	ef := float64(e)
	alpha := ef + r - 1
	out := float64(shape.OutputVolume()) * float64(shape.Cin) * float64(shape.Batch)
	return 2 * out * alpha * alpha * alpha * alpha / (ef * ef)
}

// WinogradLowerBound is the proof-exact form of Theorem 4.20: Theorem 4.6
// applied with the closed-form T(2S) of Lemma 4.19.
func WinogradLowerBound(shape shapes.ConvShape, e, s int) float64 {
	return HongKungBound(WinogradTotalVertices(shape, e), WinogradTClosed(shape, e, 2*s), s)
}

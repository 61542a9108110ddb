package bounds

import "repro/internal/shapes"

// CompulsoryTraffic is the off-chip traffic, in elements, that every
// schedule of the convolution moves whatever its fast memory:
//
//	C = N·Hout·Wout·Cout + KernelVolume + [stride 1] N·Cin·Hin·Win
//
// It is admissible because the operands start in slow memory and the result
// must end there: each output element is written at least once, and each
// weight and each input element the computation uses is read at least once.
// At stride 1 every input element lies under some window; at a larger stride
// a kernel narrower than the stride skips inputs, so the input term is
// dropped. Grouped weights count Cin/G channels per filter (KernelVolume).
// Demmel and Dinh (arXiv 1802.06905) and Chen et al. (arXiv 2204.08279)
// state their convolution bounds as the larger of this term and the
// Hong–Kung-style term; the engine's floors do the same with Theorems 4.12
// and 4.20.
func CompulsoryTraffic(shape shapes.ConvShape) float64 {
	n := float64(shape.Batch)
	c := n*float64(shape.OutputVolume()) + float64(shape.KernelVolume())
	if shape.Strid == 1 {
		c += n * float64(shape.InputVolume())
	}
	return c
}

package bounds

import "repro/internal/shapes"

// CompulsoryTraffic is the off-chip traffic, in elements, that every
// schedule of the convolution moves whatever its fast memory:
//
//	C = N·Hout·Wout·Cout + KernelVolume + N·usedRows·usedCols·Cin
//
// It is admissible because the operands start in slow memory and the result
// must end there: each output element is written at least once, and each
// weight and each input element the computation uses is read at least once.
// usedRows counts the input rows some window reads — row i with
// o·μ − pad ≤ i ≤ o·μ − pad + Hker − 1 for some output row o — and usedCols
// the same for columns, so the rows a kernel narrower than the stride skips
// and those past the last window are not counted. At stride 1 every input
// lies under some window and the term is N·Cin·Hin·Win. Grouped
// weights count Cin/G channels per filter (KernelVolume); every input
// channel belongs to some group. Demmel and Dinh (arXiv 1802.06905) and
// Chen et al. (arXiv 2204.08279) state their convolution bounds as the
// larger of this term and the Hong–Kung-style term; the engine's floors do
// the same with Theorems 4.12 and 4.20.
func CompulsoryTraffic(shape shapes.ConvShape) float64 {
	n := float64(shape.Batch)
	rows := usedExtent(shape.Hin, shape.Hout(), shape.Hker, shape.Strid, shape.Pad)
	cols := usedExtent(shape.Win, shape.Wout(), shape.Wker, shape.Strid, shape.Pad)
	return n*float64(shape.OutputVolume()) + float64(shape.KernelVolume()) +
		n*float64(rows*cols*shape.Cin)
}

// usedExtent counts the positions of [0, in) that lie under the window
// [o·stride − pad, o·stride − pad + ker) of some output o < out. The windows
// advance monotonically, so each adds the part past the last one's end.
func usedExtent(in, out, ker, stride, pad int) int {
	used, next := 0, 0
	for o := range out {
		lo := max(o*stride-pad, next)
		hi := min(o*stride-pad+ker, in)
		if hi > lo {
			used += hi - lo
			next = hi
		}
	}
	return used
}

// Package shapes defines convolution problem shapes shared by every other
// package in this repository: the bound formulas, the dataflow
// implementations, the auto-tuner and the CNN model inventories all describe
// a convolution layer with the same ConvShape value.
package shapes

import (
	"errors"
	"fmt"
	"strconv"
)

// ConvShape describes one convolution layer in the form used throughout the
// paper: an input image of Cin×Hin×Win, Cout kernels of Cin×Hker×Wker, a
// stride μ and symmetric zero padding. Batch is the number of input images
// (N); the paper's single-image analysis corresponds to Batch == 1.
type ConvShape struct {
	Batch int // N, number of images
	Cin   int // input channels
	Hin   int // input height
	Win   int // input width
	Cout  int // output channels (number of kernels)
	Hker  int // kernel height
	Wker  int // kernel width
	Strid int // stride μ (same in both spatial dimensions)
	Pad   int // symmetric zero padding (same in both spatial dimensions)
	// Groups splits the channels into G independent convolutions of
	// Cin/G -> Cout/G channels each (grouped convolution; Groups == Cin is
	// depthwise). 0 means 1 — the zero value stays an ordinary dense
	// convolution, so every pre-existing shape literal is unchanged.
	Groups int
}

// G is the group count with the zero-value default applied: 0 (and 1) mean
// an ungrouped convolution.
func (s ConvShape) G() int {
	if s.Groups > 1 {
		return s.Groups
	}
	return 1
}

// Validate reports whether the shape describes a computable convolution.
func (s ConvShape) Validate() error {
	switch {
	case s.Batch < 1:
		return fmt.Errorf("shapes: batch %d < 1", s.Batch)
	case s.Cin < 1 || s.Cout < 1:
		return fmt.Errorf("shapes: channels (%d,%d) must be positive", s.Cin, s.Cout)
	case s.Hin < 1 || s.Win < 1:
		return fmt.Errorf("shapes: input %dx%d must be positive", s.Hin, s.Win)
	case s.Hker < 1 || s.Wker < 1:
		return fmt.Errorf("shapes: kernel %dx%d must be positive", s.Hker, s.Wker)
	case s.Strid < 1:
		return fmt.Errorf("shapes: stride %d < 1", s.Strid)
	case s.Pad < 0:
		return fmt.Errorf("shapes: padding %d < 0", s.Pad)
	case s.Hin+2*s.Pad < s.Hker || s.Win+2*s.Pad < s.Wker:
		return errors.New("shapes: kernel larger than padded input")
	case s.Groups < 0:
		return fmt.Errorf("shapes: groups %d < 0", s.Groups)
	}
	if g := s.G(); g > 1 {
		if s.Cin%g != 0 || s.Cout%g != 0 {
			return fmt.Errorf("shapes: channels (%d,%d) not divisible by groups %d", s.Cin, s.Cout, g)
		}
	}
	return nil
}

// Hout is the output height (Hin + 2·Pad − Hker)/μ + 1.
func (s ConvShape) Hout() int { return (s.Hin+2*s.Pad-s.Hker)/s.Strid + 1 }

// Wout is the output width (Win + 2·Pad − Wker)/μ + 1.
func (s ConvShape) Wout() int { return (s.Win+2*s.Pad-s.Wker)/s.Strid + 1 }

// OutputVolume is the number of output elements per image, Wout·Hout·Cout.
func (s ConvShape) OutputVolume() int { return s.Wout() * s.Hout() * s.Cout }

// InputVolume is the number of input elements per image, Win·Hin·Cin.
func (s ConvShape) InputVolume() int { return s.Win * s.Hin * s.Cin }

// KernelVolume is the total number of weights, Wker·Hker·(Cin/G)·Cout: each
// of the Cout kernels only spans its group's input channels.
func (s ConvShape) KernelVolume() int { return s.Wker * s.Hker * (s.Cin / s.G()) * s.Cout }

// KernelSize is the per-kernel tensor size Wker·Hker·(Cin/G) (the sliding
// window volume of the paper; for a grouped convolution each output channel
// reads only its group's slice of the input).
func (s ConvShape) KernelSize() int { return s.Wker * s.Hker * (s.Cin / s.G()) }

// FLOPs is the number of floating-point operations of the direct algorithm:
// one multiply and one add per product term, for all images. Grouped layers
// do 1/G of the dense work because each output channel reads Cin/G inputs.
func (s ConvShape) FLOPs() int64 {
	per := int64(2) * int64(s.Wker*s.Hker*(s.Cin/s.G())) * int64(s.OutputVolume())
	return per * int64(s.Batch)
}

// GFLOPS is the layer's useful arithmetic rate when it runs in seconds:
// FLOPs()/seconds/1e9, the direct algorithm's flops whatever algorithm ran,
// so a faster run always reads a higher rate. 0 when seconds is not
// positive.
func (s ConvShape) GFLOPS(seconds float64) float64 {
	if !(seconds > 0) {
		return 0
	}
	return float64(s.FLOPs()) / seconds / 1e9
}

// R is the maximum input-reuse factor Wker·Hker/μ² from Equation (13) of the
// paper: how many sliding windows can touch one input element.
func (s ConvShape) R() float64 {
	return float64(s.Wker*s.Hker) / float64(s.Strid*s.Strid)
}

// WinogradOK reports whether the Winograd algorithm of the paper applies:
// square kernels, unit stride, and no channel grouping (the paper's Winograd
// dataflow sums over all input channels).
func (s ConvShape) WinogradOK() bool {
	return s.Hker == s.Wker && s.Strid == 1 && s.G() == 1
}

// WithBatch returns a copy of the shape with the batch size replaced.
func (s ConvShape) WithBatch(n int) ConvShape {
	s.Batch = n
	return s
}

func (s ConvShape) String() string { return string(s.AppendString(nil)) }

// shapeFormat is String's text before each of its first nine numbers.
var shapeFormat = [...]string{"conv[N=", " Cin=", " ", "x", " k=", "x", " Cout=", " mu=", " pad="}

// AppendString appends the shape's String form to b, e.g.
// "conv[N=1 Cin=64 56x56 k=3x3 Cout=64 mu=1 pad=1 -> 56x56]", with " g=G"
// after the padding of a grouped shape.
func (s ConvShape) AppendString(b []byte) []byte {
	for i, v := range [...]int{s.Batch, s.Cin, s.Hin, s.Win, s.Hker, s.Wker, s.Cout, s.Strid, s.Pad} {
		b = strconv.AppendInt(append(b, shapeFormat[i]...), int64(v), 10)
	}
	if s.G() > 1 {
		b = strconv.AppendInt(append(b, " g="...), int64(s.G()), 10)
	}
	b = strconv.AppendInt(append(b, " -> "...), int64(s.Hout()), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(s.Wout()), 10)
	return append(b, ']')
}

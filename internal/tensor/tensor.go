// Package tensor provides the dense float32 tensors used by every
// convolution implementation in this repository. Tensors are flat slices
// with explicit dimensions and a memory layout, mirroring how convolution
// data is stored in off-chip memory on an accelerator.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Layout describes the memory order of a 4-D image tensor. The paper's
// search domain (Table 1) includes the layout as a tunable parameter with
// choices CHW, CWH and HWC (per image; batch is always outermost).
type Layout int

const (
	// NCHW stores images as [batch][channel][height][width] (the default).
	NCHW Layout = iota
	// NCWH stores images as [batch][channel][width][height].
	NCWH
	// NHWC stores images as [batch][height][width][channel].
	NHWC
)

// Layouts lists every supported layout, in the order used by the tuner.
var Layouts = []Layout{NCHW, NCWH, NHWC}

func (l Layout) String() string {
	switch l {
	case NCHW:
		return "CHW"
	case NCWH:
		return "CWH"
	case NHWC:
		return "HWC"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Tensor is a dense 4-D tensor of shape (N, C, H, W) with configurable
// memory layout. A Tensor with N==1 models a single image; kernels are
// stored as (Cout, Cin, Hker, Wker) in NCHW order.
type Tensor struct {
	N, C, H, W int
	Lay        Layout
	Data       []float32
}

// New allocates a zeroed tensor.
func New(n, c, h, w int) *Tensor {
	return NewWithLayout(n, c, h, w, NCHW)
}

// NewWithLayout allocates a zeroed tensor with the given layout.
func NewWithLayout(n, c, h, w int, lay Layout) *Tensor {
	if n < 1 || c < 1 || h < 1 || w < 1 {
		panic(fmt.Sprintf("tensor: invalid dims (%d,%d,%d,%d)", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Lay: lay, Data: make([]float32, n*c*h*w)}
}

// Len is the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Index converts (n, c, h, w) coordinates to a flat offset for the tensor's
// layout.
func (t *Tensor) Index(n, c, h, w int) int {
	switch t.Lay {
	case NCHW:
		return ((n*t.C+c)*t.H+h)*t.W + w
	case NCWH:
		return ((n*t.C+c)*t.W+w)*t.H + h
	case NHWC:
		return ((n*t.H+h)*t.W+w)*t.C + c
	}
	panic("tensor: unknown layout")
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.Data[t.Index(n, c, h, w)] }

// Set stores v at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.Data[t.Index(n, c, h, w)] = v }

// AtPadded returns the element at (n, c, h, w) where h and w may fall outside
// the tensor by up to the zero-padding halo; out-of-range reads return 0.
func (t *Tensor) AtPadded(n, c, h, w int) float32 {
	if h < 0 || h >= t.H || w < 0 || w >= t.W {
		return 0
	}
	return t.Data[t.Index(n, c, h, w)]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{N: t.N, C: t.C, H: t.H, W: t.W, Lay: t.Lay, Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// ToLayout returns a copy of the tensor converted to the target layout.
// Converting to the current layout returns a clone.
func (t *Tensor) ToLayout(lay Layout) *Tensor {
	if lay == t.Lay {
		return t.Clone()
	}
	out := NewWithLayout(t.N, t.C, t.H, t.W, lay)
	for n := 0; n < t.N; n++ {
		for c := 0; c < t.C; c++ {
			for h := 0; h < t.H; h++ {
				for w := 0; w < t.W; w++ {
					out.Set(n, c, h, w, t.At(n, c, h, w))
				}
			}
		}
	}
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [-1, 1) derived from seed.
func (t *Tensor) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two tensors of identical dimensions, comparing by coordinates so layouts
// may differ. It panics if dimensions mismatch.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.N != b.N || a.C != b.C || a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("tensor: dim mismatch (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.N, a.C, a.H, a.W, b.N, b.C, b.H, b.W))
	}
	var maxd float64
	for n := 0; n < a.N; n++ {
		for c := 0; c < a.C; c++ {
			for h := 0; h < a.H; h++ {
				for w := 0; w < a.W; w++ {
					d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
					if d > maxd {
						maxd = d
					}
				}
			}
		}
	}
	return maxd
}

// AllClose reports whether two tensors agree element-wise within tol.
func AllClose(a, b *Tensor, tol float64) bool { return MaxAbsDiff(a, b) <= tol }

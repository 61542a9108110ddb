// Package fft provides the radix-2 fast Fourier transform substrate used by
// the FFT-based convolution (the other indirect convolution method in the
// paper's taxonomy, alongside Winograd). Stdlib only: iterative in-place
// Cooley–Tukey over complex128 with precomputed twiddle factors, plus 2-D
// transforms applied row/column-wise.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds the twiddle factors and bit-reversal permutation for length-n
// transforms (n must be a power of two). Plans are reusable and safe for
// concurrent Forward/Inverse calls on distinct buffers.
type Plan struct {
	n       int
	logN    int
	rev     []int
	twiddle []complex128 // forward twiddles, n/2 entries
}

// NewPlan prepares a transform of the given power-of-two length.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, logN: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logN))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return p, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n < 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Forward computes the in-place DFT of x (len must equal the plan length).
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse DFT of x, including the 1/n scale.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d != plan length %d", len(x), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// Plan2D couples two plans for row-column 2-D transforms on flat row-major
// buffers of size rows×cols.
type Plan2D struct {
	rows, cols *Plan
}

// NewPlan2D prepares a rows×cols 2-D transform (both powers of two).
func NewPlan2D(rows, cols int) (*Plan2D, error) {
	rp, err := NewPlan(rows)
	if err != nil {
		return nil, err
	}
	cp, err := NewPlan(cols)
	if err != nil {
		return nil, err
	}
	return &Plan2D{rows: rp, cols: cp}, nil
}

// Rows returns the number of rows.
func (p *Plan2D) Rows() int { return p.rows.n }

// Forward computes the in-place 2-D DFT of the rows×cols buffer x.
func (p *Plan2D) Forward(x []complex128) { p.apply(x, false) }

// Inverse computes the in-place 2-D inverse DFT (scaled).
func (p *Plan2D) Inverse(x []complex128) { p.apply(x, true) }

func (p *Plan2D) apply(x []complex128, inverse bool) {
	r, c := p.rows.n, p.cols.n
	if len(x) != r*c {
		panic(fmt.Sprintf("fft: buffer length %d != %dx%d", len(x), r, c))
	}
	for i := 0; i < r; i++ {
		row := x[i*c : (i+1)*c]
		if inverse {
			p.cols.Inverse(row)
		} else {
			p.cols.Forward(row)
		}
	}
	col := make([]complex128, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			col[i] = x[i*c+j]
		}
		if inverse {
			p.rows.Inverse(col)
		} else {
			p.rows.Forward(col)
		}
		for i := 0; i < r; i++ {
			x[i*c+j] = col[i]
		}
	}
}

// FlopsPerTransform is the standard 5·n·log2(n) operation count of a
// length-n complex radix-2 FFT, used by the simulator's accounting.
func FlopsPerTransform(n int) int {
	if n <= 1 {
		return 0
	}
	return 5 * n * bits.TrailingZeros(uint(n))
}

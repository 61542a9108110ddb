package autotune

import (
	"fmt"
	"strings"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// This file is the template manager's user-facing artifact (Figure 8): it
// renders a configuration as the loop-nest schedule the low-level kernel
// would implement, so a developer can read exactly what a tuned
// configuration means before porting it to a real backend.

// scheduleWriter writes one line of a schedule at an indentation depth.
type scheduleWriter func(depth int, format string, args ...interface{})

// EmitSchedule renders the kernel schedule of a configuration for a layer
// as indented pseudo-code: the grid header, then the kind's template body —
// the Section 5.2 direct template, the Section 5.3 fused Winograd template,
// or the FFT / implicit-GEMM variants. Grouped layers slide over the Cin/G
// channels of one group; the grid line shows the group count through the
// shape's String.
func EmitSchedule(kind Kind, s shapes.ConvShape, c conv.Config) string {
	var b strings.Builder
	w := func(depth int, format string, args ...interface{}) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	row := kind.spec()
	ph, pw := row.plane(s)
	bx := (pw + c.TileX - 1) / c.TileX
	by := (ph + c.TileY - 1) / c.TileY
	bz := (s.Cout + c.TileZ - 1) / c.TileZ

	w(0, "// %s template for %v", kind, s)
	w(0, "// grid: %d x %d x %d x %d blocks, %d threads/block (%dx%dx%d), Sb=%d floats, layout %v",
		bx, by, bz, s.Batch, c.Threads(), c.ThreadsX, c.ThreadsY, c.ThreadsZ, c.SharedPerBlock, c.Layout)
	row.emit(w, s, c)
	return b.String()
}

func emitDirect(w scheduleWriter, s shapes.ConvShape, c conv.Config) {
	cin := s.Cin / s.G()
	xp := s.Strid*c.TileX + s.Wker - s.Strid
	yp := s.Strid*c.TileY + s.Hker - s.Strid
	w(0, "__shared__ float out[%d]   // %dx%dx%d output sub-block, resident throughout",
		c.TileX*c.TileY*c.TileZ, c.TileX, c.TileY, c.TileZ)
	w(0, "__shared__ float in[%d]    // %dx%d halo'd input tile, one channel", xp*yp, xp, yp)
	w(0, "__shared__ float wgt[%d]   // %dx%d weights for %d kernels", s.Hker*s.Wker*c.TileZ, s.Hker, s.Wker, c.TileZ)
	w(0, "zero(out)")
	w(0, "for c in 0..%d {                 // channel-sliding, alpha = 1", cin)
	w(1, "load in  <- image[c] tile        // %d floats, once per channel", xp*yp)
	w(1, "load wgt <- kernels[z0:z0+%d][c] // %d floats", c.TileZ, s.Hker*s.Wker*c.TileZ)
	w(1, "parallel (tx,ty,tz) in %dx%dx%d threads:", c.ThreadsX, c.ThreadsY, c.ThreadsZ)
	w(2, "for (x,y,z) in my %dx%dx%d slice of the tile:",
		c.TileX/c.ThreadsX, c.TileY/c.ThreadsY, c.TileZ/c.ThreadsZ)
	w(3, "out[x,y,z] += dot(in[window(x,y)], wgt[z])  // %dx%d taps", s.Hker, s.Wker)
	w(0, "}")
	w(0, "store out -> output sub-block     // written exactly once")
}

func emitWinograd(w scheduleWriter, s shapes.ConvShape, c conv.Config) {
	e := c.WinogradE
	r := s.Hker
	alpha := e + r - 1
	subs := ((c.TileX + e - 1) / e) * ((c.TileY + e - 1) / e)
	w(0, "__shared__ float Pi[%d]    // %d sub-tiles x %d channels x %dx%d accumulators",
		subs*c.TileZ*alpha*alpha, subs, c.TileZ, alpha, alpha)
	w(0, "__shared__ float Lam[%d]   // second temporary array (paper, Section 5.3)", subs*c.TileZ*alpha*alpha)
	w(0, "zero(Pi)")
	w(0, "for c in 0..%d {", s.Cin)
	w(1, "load in <- image[c] halo tile")
	w(1, "V[t] = B^T . in[t] . B       for each of %d sub-tiles   // F(%dx%d,%dx%d)", subs, e, e, r, r)
	w(1, "for k in 0..%d {", c.TileZ)
	w(2, "load g <- kernels[z0+k][c]   // %d raw weights", r*r)
	w(2, "U = G . g . G^T              // on-chip filter transform")
	w(2, "Pi[t,k] += U (*) V[t]        for each sub-tile  // element-wise")
	w(1, "}")
	w(0, "}")
	w(0, "Y[t,k] = A^T . Pi[t,k] . A   // %dx%d outputs per sub-tile", e, e)
	w(0, "store Y -> output sub-block")
}

func emitFFT(w scheduleWriter, s shapes.ConvShape, c conv.Config) {
	cin := s.Cin / s.G()
	f := c.TileX * c.TileY
	w(0, "// phases 1 (input FFT), 2 (kernel FFT) and 4 (inverse FFT) are")
	w(0, "// fixed library launches; this schedule is the tunable phase 3.")
	w(0, "__shared__ float acc[%d]   // %dx%dx%d complex frequency tile, double-buffered",
		4*f*c.TileZ, c.TileX, c.TileY, c.TileZ)
	w(0, "__shared__ float in[%d]    // one channel's complex frequency tile, double-buffered", 4*f)
	w(0, "zero(acc)")
	w(0, "for c in 0..%d {                 // channels of my group", cin)
	w(1, "load in  <- Image_hat[c] tile    // %d complex values", f)
	w(1, "load wgt <- Kernel_hat[z0:z0+%d][c] tile", c.TileZ)
	w(1, "parallel (tx,ty,tz) in %dx%dx%d threads:", c.ThreadsX, c.ThreadsY, c.ThreadsZ)
	w(2, "acc[x,y,z] += in[x,y] * wgt[x,y,z]   // complex multiply-add")
	w(0, "}")
	w(0, "store acc -> Out_hat sub-block    // phase 4 inverse-transforms it")
}

func emitIGEMM(w scheduleWriter, s shapes.ConvShape, c conv.Config) {
	cin := s.Cin / s.G()
	w(0, "__shared__ float out[%d]   // %dx%dx%d output sub-block, resident throughout",
		c.TileX*c.TileY*c.TileZ, c.TileX, c.TileY, c.TileZ)
	w(0, "__shared__ float in[%d]    // gathered im2col slice, double-buffered (no halo)", 2*c.TileX*c.TileY)
	w(0, "__shared__ float wgt[%d]   // %dx%d taps for %d kernels", s.Hker*s.Wker*c.TileZ, s.Hker, s.Wker, c.TileZ)
	w(0, "zero(out)")
	w(0, "for c in 0..%d {                 // channels of my group", cin)
	w(1, "load wgt <- kernels[z0:z0+%d][c] // %d floats", c.TileZ, s.Hker*s.Wker*c.TileZ)
	w(1, "for (kh,kw) in %dx%d taps {", s.Hker, s.Wker)
	w(2, "gather in <- image[c] at (%d*y+kh, %d*x+kw)  // strided im2col gather", s.Strid, s.Strid)
	w(2, "parallel (tx,ty,tz) in %dx%dx%d threads:", c.ThreadsX, c.ThreadsY, c.ThreadsZ)
	w(3, "out[x,y,z] += in[x,y] * wgt[z][kh,kw]  // rank-1 GEMM update")
	w(1, "}")
	w(0, "}")
	w(0, "store out -> output sub-block     // written exactly once")
}

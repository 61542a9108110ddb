// Command iobound prints the paper's I/O lower bounds, the dataflow I/O
// models and the optimal tiles for one convolution layer over a sweep of
// fast-memory sizes, together with the actually-measured traffic of the
// simulated dataflow.
//
// Usage:
//
//	iobound -cin 256 -hw 56 -cout 128 -k 3 -stride 1 -arch 1080Ti
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/bounds"
	"repro/internal/report"
)

func main() {
	cin := flag.Int("cin", 256, "input channels")
	hw := flag.Int("hw", 56, "input height and width")
	cout := flag.Int("cout", 128, "output channels")
	k := flag.Int("k", 3, "kernel size")
	stride := flag.Int("stride", 1, "stride")
	pad := flag.Int("pad", 0, "padding")
	batch := flag.Int("batch", 1, "batch size")
	archName := flag.String("arch", "1080Ti", "architecture name")
	flag.Parse()

	s, err := repro.NewShape(*batch, *cin, *hw, *cout, *k, *stride, *pad)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	arch, err := repro.ArchByName(*archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("%v on %s (R = %.2f)\n\n", s, arch.Name, s.R())

	t := report.New("I/O lower bounds vs dataflow I/O (elements)",
		"S (floats)", "bound direct", "dataflow direct", "ratio",
		"bound wino e=2", "dataflow wino", "ratio")
	for _, fastMem := range []int{1024, 4096, 16384, 65536} {
		lb := repro.LowerBoundDirect(s, fastMem)
		df := repro.DataflowIODirect(s, fastMem, 1)
		row := []interface{}{fastMem, lb, df, df / lb}
		if s.WinogradOK() {
			wlb := repro.LowerBoundWinograd(s, 2, fastMem)
			wdf := repro.DataflowIOWinograd(s, 2, fastMem, 1)
			row = append(row, wlb, wdf, wdf/wlb)
		} else {
			row = append(row, "-", "-", "-")
		}
		t.AddRowF(row...)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := repro.DefaultDirectConfig(arch, s)
	res, err := repro.MeasureDirect(arch, s, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tile := bounds.Tile{X: cfg.TileX, Y: cfg.TileY, Z: cfg.TileZ}
	fmt.Printf("\ndefault dataflow config: %v\n", cfg)
	fmt.Printf("optimality gap |xy-Rz|/(xy+Rz): %.3f\n", tile.OptimalityGap(s.R()))
	fmt.Printf("measured off-chip traffic:      %d elements\n", res.Counts.GlobalIO())
	fmt.Printf("lower bound at S=Sb:            %.0f elements\n", repro.LowerBoundDirect(s, cfg.SharedPerBlock))
	fmt.Printf("simulated time on %s:       %.3gs (%.0f GFLOP/s)\n", arch.Name, res.Seconds, s.GFLOPS(res.Seconds))
}

package experiments

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/shapes"
)

// Table2Row is one row of Table 2: one AlexNet layer tuned by the TVM proxy
// (model-guided search on the full space) and by ATE (the same engine on the
// optimality-condition-pruned searching domain).
type Table2Row struct {
	Layer     string
	Kind      autotune.Kind
	SizeTVM   int64
	SizeATE   int64
	Ratio     float64 // ATE/TVM space size
	ItersTVM  int
	ItersATE  int
	PrunedATE int // candidates the I/O lower bound discarded unmeasured
	GFLOPSTVM float64
	GFLOPSATE float64
	PerfRatio float64 // ATE/TVM final performance: TVM seconds over ATE seconds
}

// Table2 reproduces Table 2 on the V100 model: for AlexNet conv1–conv4
// (direct dataflow) and conv3/conv4 (Winograd dataflow), the size of the
// full configuration space vs the pruned searching domain, the measurements
// needed to converge, and the final solution's useful GFLOPS
// (shapes.ConvShape.GFLOPS: the direct algorithm's flops, whatever the
// kind). The TVM stand-in is
// the identical learned-cost-model engine run on the unpruned space, which
// isolates exactly the contribution of the optimality condition.
func Table2(opts Options) ([]Table2Row, *report.Table, error) {
	arch := memsim.V100
	alex := models.AlexNet()
	budget := opts.budget(300, 96)
	patience := budget / 3

	type job struct {
		name  string
		shape shapes.ConvShape
		kind  autotune.Kind
	}
	jobs := []job{
		{"conv1", alex.Layers[0].Shape, autotune.Direct},
		{"conv2", alex.Layers[1].Shape, autotune.Direct},
		{"conv3", alex.Layers[2].Shape, autotune.Direct},
		{"conv4", alex.Layers[3].Shape, autotune.Direct},
		{"conv3_wino", alex.Layers[2].Shape, autotune.Winograd},
		{"conv4_wino", alex.Layers[3].Shape, autotune.Winograd},
	}
	if opts.Quick {
		jobs = []job{jobs[0], jobs[4]}
	}

	var rows []Table2Row
	for _, j := range jobs {
		full, err := autotune.NewSpace(j.shape, arch, j.kind, 0, false)
		if err != nil {
			return nil, nil, err
		}
		pruned, err := autotune.NewSpace(j.shape, arch, j.kind, 0, true)
		if err != nil {
			return nil, nil, err
		}
		measure := autotune.KindMeasurer(arch, j.shape, j.kind)
		tuneOpts := autotune.DefaultOptions()
		tuneOpts.Budget = budget
		tuneOpts.Patience = patience
		tuneOpts.Seed = opts.seed()

		// The TVM proxy searches the unpruned space without the Section-5
		// starting configurations and without bound-guided pruning — an
		// external tuner has neither the optimality condition nor a
		// lower-bound oracle.
		tvmOpts := tuneOpts
		tvmOpts.NoSeeds = true
		tvmOpts.NoPrune = true
		tvm, err := autotune.Tune(full, measure, tvmOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s full: %w", j.name, err)
		}
		ate, err := autotune.Tune(pruned, measure, tuneOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s pruned: %w", j.name, err)
		}
		sf, sa := full.Size(), pruned.Size()
		rows = append(rows, Table2Row{
			Layer: j.name, Kind: j.kind,
			SizeTVM: sf, SizeATE: sa, Ratio: float64(sa) / float64(sf),
			ItersTVM: tvm.ConvergedAt, ItersATE: ate.ConvergedAt,
			PrunedATE: ate.Pruned,
			GFLOPSTVM: j.shape.GFLOPS(tvm.BestM.Seconds), GFLOPSATE: j.shape.GFLOPS(ate.BestM.Seconds),
			PerfRatio: tvm.BestM.Seconds / ate.BestM.Seconds,
		})
	}

	t := report.New("Table 2: TVM-proxy vs auto-tuning engine (V100 model, AlexNet layers)",
		"layer", "space TVM", "space ATE", "ATE/TVM", "iters TVM", "iters ATE",
		"pruned ATE", "GFLOPS TVM", "GFLOPS ATE", "ATE/TVM perf")
	for _, r := range rows {
		t.AddRowF(r.Layer, r.SizeTVM, r.SizeATE,
			fmt.Sprintf("%.1f%%", 100*r.Ratio), r.ItersTVM, r.ItersATE,
			r.PrunedATE, r.GFLOPSTVM, r.GFLOPSATE, r.PerfRatio)
	}
	return rows, t, nil
}

package autotune

import (
	"math"
	"sort"
)

// Model diagnostics the tests read: per-feature split counts and RMSE.

// FeatureNames labels the cost-model feature vector for diagnostics, in the
// order produced by Space.Features.
var FeatureNames = []string{
	"log2(tileX)", "log2(tileY)", "log2(tileZ)", "log2(volume)",
	"log2(threads)", "log2(Sb)", "log2(blocks)", "optimality-gap",
	"shared-pressure", "log2(xy)", "layout", "warp-sized",
	"log2(z*R)", "volume/Sb",
}

// Importance is one feature's aggregate contribution to the fitted model.
type Importance struct {
	Feature string
	// Splits counts how many tree nodes split on the feature.
	Splits int
	// Gain would require retraining bookkeeping; split counts are the
	// standard cheap proxy (XGBoost's "weight" importance).
}

// FeatureImportance returns per-feature split counts of a fitted model,
// sorted descending — which knobs the cost model learned to care about.
func (m *GBTModel) FeatureImportance() []Importance {
	counts := make(map[int]int)
	for _, n := range m.nodes {
		if n.feature >= 0 {
			counts[int(n.feature)]++
		}
	}
	out := make([]Importance, 0, len(counts))
	for f, c := range counts {
		name := "unknown"
		if f >= 0 && f < len(FeatureNames) {
			name = FeatureNames[f]
		}
		out = append(out, Importance{Feature: name, Splits: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Splits != out[j].Splits {
			return out[i].Splits > out[j].Splits
		}
		return out[i].Feature < out[j].Feature
	})
	return out
}

// RMSE is the model's root-mean-square error over (x, y).
func (m *GBTModel) RMSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := m.Predict(x[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

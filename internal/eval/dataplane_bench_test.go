package eval

import (
	"testing"

	"github.com/arda-ml/arda/internal/ml"
)

// BenchmarkDataplaneSubsetScore times pooled copy-free subset scoring — the
// inner loop of every wrapper feature-selection search. The trivial fitter
// isolates the scorer from model training.
func BenchmarkDataplaneSubsetScore(b *testing.B) {
	ds := subsetFixture(2000, 16, 5)
	sp := TrainTestSplit(ds, 0.25, 9)
	cols := []int{0, 1, 2, 3, 5, 8, 13}
	fit := func(d *ml.Dataset) ml.Model { return constModel(0) }
	ev := NewSubsetEvaluator(ds, sp, fit, allColumns(ds.D))
	ev.ScoreAt(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ScoreAt(cols)
	}
}

package ml

import (
	"testing"
)

func BenchmarkForestFitClassification(b *testing.B) {
	ds := makeClassification(500, 4, 26, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitForest(ds, ForestConfig{NTrees: 40, MaxDepth: 10, Seed: int64(i), Parallel: true})
	}
}

func BenchmarkForestFitRegression(b *testing.B) {
	ds := makeRegression(500, 28, 102)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitForest(ds, ForestConfig{NTrees: 40, MaxDepth: 10, Seed: int64(i), Parallel: true})
	}
}

func BenchmarkForestPredict(b *testing.B) {
	ds := makeClassification(500, 4, 26, 103)
	f := FitForest(ds, ForestConfig{NTrees: 40, MaxDepth: 10, Seed: 1, Parallel: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(ds.Row(i % ds.N))
	}
}

func BenchmarkSparse21Wide(b *testing.B) {
	// The RIFS regime: more features than rows.
	ds := makeRegression(200, 400, 104)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSparse21(ds, Sparse21Config{Gamma: 0.5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitForestOneHot is the rung under the benchmark's
// ml.forest_fit_probe_ms: the evaluation forest over a tall one-hot base
// table (tall-base's training split — 9,000 rows, 64 one-hot columns and one
// continuous — under automl.DefaultForestConfig's shape).
func BenchmarkFitForestOneHot(b *testing.B) {
	ds := oneHotFixture(9000, 64, 8, 1, Regression, 108)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitForest(ds, ForestConfig{NTrees: 60, MaxDepth: 12, Seed: int64(i), Parallel: true})
	}
}

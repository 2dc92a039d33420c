package ml

import "testing"

// Forest-fit benchmarks over the shapes ARDA fits.

func benchFitForest(b *testing.B, ds *Dataset, cfg ForestConfig) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitForest(ds, cfg)
	}
}

// BenchmarkSelectForestCoreset is the RIFS selection-forest shape: a small
// coreset with many (mostly noise) columns, classification mtry = √d — the
// flat regime of the adaptive kernel.
func BenchmarkSelectForestCoreset(b *testing.B) {
	benchFitForest(b, makeClassification(160, 6, 144, 201),
		ForestConfig{NTrees: 20, MaxDepth: 10, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestRegression is the regression ranking-forest shape:
// mtry = d/3 pushes the root into the presorted regime.
func BenchmarkSelectForestRegression(b *testing.B) {
	benchFitForest(b, makeRegression(500, 28, 202),
		ForestConfig{NTrees: 20, MaxDepth: 10, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestCoresetRegression is the service workloads' ranking
// forest under the default estimator's size: 192 coreset rows × 130 columns
// (40 one-hot, 90 continuous), mtry = d/3 = 43, so the cost rule keeps every
// node above eight samples presorted.
func BenchmarkSelectForestCoresetRegression(b *testing.B) {
	benchFitForest(b, oneHotFixture(192, 40, 8, 90, Regression, 205),
		ForestConfig{NTrees: 60, MaxDepth: 12, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestEvaluate is the downstream evaluation-forest shape:
// thousands of samples over few columns, all presorted until deep subtrees.
func BenchmarkSelectForestEvaluate(b *testing.B) {
	benchFitForest(b, makeClassification(3000, 5, 15, 203),
		ForestConfig{NTrees: 20, MaxDepth: 10, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestEvaluateRegression is tall-base's evaluation-forest
// shape: a 9,000-row regression base table whose 64 one-hot columns encode
// two 32-level categoricals, as synth.Poverty's do, plus 9 continuous
// columns, 10 trees of depth 12 — mtry = 24, so presorted from the root down
// to nodes of nine samples, each categorical's drawn indicators scored from
// one pass per node.
func BenchmarkSelectForestEvaluateRegression(b *testing.B) {
	benchFitForest(b, oneHotFixture(9000, 64, 32, 9, Regression, 206),
		ForestConfig{NTrees: 10, MaxDepth: 12, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestRepetitions is the presorted-columns pair over the
// RIFS repetition shape: the same forest fit from a view over columns
// presorted once outside the loop ("cached" — what every repetition pays)
// versus building its own per-forest split set ("uncached"). The view's
// global orders also light up the counting-scan extraction at large nodes.
func BenchmarkSelectForestRepetitions(b *testing.B) {
	ds := makeClassification(160, 6, 144, 204)
	cfg := ForestConfig{NTrees: 20, MaxDepth: 10, Seed: 7, Parallel: true}
	b.Run("cached", func(b *testing.B) {
		cols := PresortColumns(ds, 0) // once per RStar call, outside the reps
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds.AttachSplits(NewSplitView(ds, cols, nil))
			FitForest(ds, cfg)
			ds.AttachSplits(nil)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FitForest(ds, cfg)
		}
	})
}

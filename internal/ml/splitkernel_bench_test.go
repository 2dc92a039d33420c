package ml

import (
	"math"
	"testing"
)

// Forest-fit benchmarks over the shapes ARDA fits.

func benchFitForest(b *testing.B, ds *Dataset, cfg ForestConfig) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitForest(ds, cfg)
	}
}

// BenchmarkSelectForestCoreset is a small two-class coreset with many
// (mostly noise) Gaussian columns: 160 rows × 150 columns, mtry = √d.
func BenchmarkSelectForestCoreset(b *testing.B) {
	benchFitForest(b, makeClassification(160, 6, 144, 201),
		ForestConfig{NTrees: 20, MaxDepth: 10, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestWideRepo is the ranking forest of a RIFS repetition
// on the wide-repo workload: its 256-row coreset, 256 real columns plus the
// 52 injected noise columns, three classes, 40 trees of depth 10, mtry = √d.
// The real columns mix as the workload's do: 64 one-hot indicators (eight
// 8-level groups), 96 joined columns of a few dozen distinct values
// (Gaussians rounded to eighths) and 96 continuous ones. As in RIFS, the
// forest reads a split view presorted outside the loop.
func BenchmarkSelectForestWideRepo(b *testing.B) {
	ds := oneHotFixture(256, 64, 8, 192+52, Classification, 207)
	for i := 0; i < ds.N; i++ {
		for j := 64; j < 160; j++ {
			ds.X[i*ds.D+j] = math.Round(ds.X[i*ds.D+j]*8) / 8
		}
	}
	ds.AttachSplits(NewSplitView(ds, PresortColumns(ds, 0), nil))
	benchFitForest(b, ds, ForestConfig{NTrees: 40, MaxDepth: 10, Seed: 7, Parallel: true})
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
// shape: the 9,000-row train split of Poverty ×8's augmented table
// (povertyShapeFixture). Its 64 one-hot columns are county_id's 31 pooled
// single-row indicators — 8 of them constant, their row held out — and
// county_id=<other>, then state's 31 indicators and state=<other>; 7 numeric
// columns follow. 10 trees of depth 12, mtry = 23: presorted from the root
// down to nodes of nine samples, each categorical's drawn indicators scored
// from one pass per node.
func BenchmarkSelectForestEvaluateRegression(b *testing.B) {
	benchFitForest(b, povertyShapeFixture(9000, 8, 7, Regression, 206),
		ForestConfig{NTrees: 10, MaxDepth: 12, Seed: 7, Parallel: true})
}

// BenchmarkSelectForestRepetitions is the presorted-columns pair over the
// RIFS repetition shape: the same forest fit from a view over columns
// presorted once outside the loop ("cached" — what every repetition pays)
// versus building its own per-forest split set ("uncached"), which sorts
// every column once to code it.
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

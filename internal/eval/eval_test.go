package eval

import (
	"math"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]float64{0, 1, 1}, []float64{0, 1, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestRegressionMetrics(t *testing.T) {
	truth := []float64{2, 2, 5}
	if got := R2(truth, truth); got != 1 {
		t.Fatalf("R2 of perfect fit = %v", got)
	}
	mean := []float64{3, 3, 3}
	if got := R2(mean, truth); math.Abs(got) > 1e-12 {
		t.Fatalf("R2 of mean predictor = %v", got)
	}
}

func TestScoreClipsNegativeR2(t *testing.T) {
	bad := []float64{100, -100, 100}
	truth := []float64{1, 2, 3}
	if got := Score(ml.Regression, 0, bad, truth); got != 0 {
		t.Fatalf("negative R² should clip to 0, got %v", got)
	}
}

func classDataset(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = float64(i % 3)
		x[i] = rng.NormFloat64()
	}
	ds, _ := ml.NewDataset(x, n, 1, y, ml.Classification, 3)
	return ds
}

func TestTrainTestSplitStratified(t *testing.T) {
	ds := classDataset(300, 1)
	sp := TrainTestSplit(ds, 0.25, 2)
	if len(sp.Train)+len(sp.Test) != 300 {
		t.Fatalf("split sizes %d + %d != 300", len(sp.Train), len(sp.Test))
	}
	// Each class should appear in the test split proportionally (25 of 100).
	counts := map[int]int{}
	for _, i := range sp.Test {
		counts[ds.Label(i)]++
	}
	for k := 0; k < 3; k++ {
		if counts[k] < 20 || counts[k] > 30 {
			t.Fatalf("class %d test count = %d, want ~25", k, counts[k])
		}
	}
	// No overlap.
	inTest := map[int]bool{}
	for _, i := range sp.Test {
		inTest[i] = true
	}
	for _, i := range sp.Train {
		if inTest[i] {
			t.Fatal("train/test overlap")
		}
	}
}

func TestKFoldCoversAll(t *testing.T) {
	ds := classDataset(90, 3)
	folds := KFold(ds, 5, 4)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, sp := range folds {
		if len(sp.Train)+len(sp.Test) != 90 {
			t.Fatal("fold does not partition the data")
		}
		for _, i := range sp.Test {
			seen[i]++
		}
	}
	for i := 0; i < 90; i++ {
		if seen[i] != 1 {
			t.Fatalf("sample %d appears in %d test folds", i, seen[i])
		}
	}
}

func TestHoldoutScore(t *testing.T) {
	// A strong feature → near-perfect holdout accuracy with a forest.
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = float64(i % 2)
		x[i] = y[i]*4 + 0.1*float64(i%5)
	}
	ds, _ := ml.NewDataset(x, n, 1, y, ml.Classification, 2)
	sp := TrainTestSplit(ds, 0.25, 5)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 10, MaxDepth: 4, Seed: 1})
	}
	if sc := HoldoutScore(ds, sp, fit); sc < 0.95 {
		t.Fatalf("holdout score = %v", sc)
	}
}

func TestCrossValScore(t *testing.T) {
	ds := classDataset(120, 6)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 5, MaxDepth: 3, Seed: 1})
	}
	sc := CrossValScore(ds, 3, 7, fit)
	// Labels are independent of x, so CV accuracy should hover near 1/3.
	if sc < 0.1 || sc > 0.6 {
		t.Fatalf("chance-level CV score = %v", sc)
	}
}

func TestKFoldRegression(t *testing.T) {
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i)
	}
	ds, _ := ml.NewDataset(x, n, 1, y, ml.Regression, 0)
	folds := KFold(ds, 5, 9)
	total := 0
	for _, sp := range folds {
		total += len(sp.Test)
	}
	if total != n {
		t.Fatalf("regression folds cover %d of %d rows", total, n)
	}
}

func TestTrainTestSplitRegressionFractions(t *testing.T) {
	n := 100
	ds, _ := ml.NewDataset(make([]float64, n), n, 1, make([]float64, n), ml.Regression, 0)
	sp := TrainTestSplit(ds, 0.3, 10)
	if len(sp.Test) != 30 || len(sp.Train) != 70 {
		t.Fatalf("split = %d/%d", len(sp.Train), len(sp.Test))
	}
	// Degenerate fraction falls back to the default 0.25.
	sp = TrainTestSplit(ds, 2.0, 11)
	if len(sp.Test) != 25 {
		t.Fatalf("fallback split test = %d", len(sp.Test))
	}
}

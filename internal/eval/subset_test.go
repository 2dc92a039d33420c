package eval

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/testenv"
)

// subsetFixture builds a regression dataset where only some columns carry
// signal.
func subsetFixture(n, d int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x[i*d+j] = rng.NormFloat64()
		}
		y[i] = 3*x[i*d] - 2*x[i*d+1] + 0.1*rng.NormFloat64()
	}
	ds, err := ml.NewDataset(x, n, d, y, ml.Regression, 0)
	if err != nil {
		panic(err)
	}
	return ds
}

// allColumns returns [0, d).
func allColumns(d int) []int {
	cols := make([]int, d)
	for j := range cols {
		cols[j] = j
	}
	return cols
}

// TestHoldoutSubsetScoreEquivalence proves the pooled-scratch subset scorer
// returns exactly what materializing the column subset would, for ascending
// and arbitrarily ordered subsets (the ranking-ordered prefixes the wrapper
// searches score).
func TestHoldoutSubsetScoreEquivalence(t *testing.T) {
	ds := subsetFixture(120, 6, 5)
	sp := TrainTestSplit(ds, 0.25, 9)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 8, MaxDepth: 4, Seed: 3})
	}
	ev := NewSubsetEvaluator(ds, sp, fit, allColumns(ds.D))
	for _, cols := range [][]int{{0}, {0, 1}, {5, 2, 0}, {0, 1, 2, 3, 4, 5}} {
		want := HoldoutScore(ds.SelectFeatures(cols), sp, fit)
		got := ev.ScoreAt(cols)
		if got != want {
			t.Fatalf("cols %v: pooled score %v != materialized score %v", cols, got, want)
		}
		// Repeat to prove pool reuse does not leak state between calls.
		if again := ev.ScoreAt(cols); again != want {
			t.Fatalf("cols %v: pooled score drifted on reuse: %v != %v", cols, again, want)
		}
	}
}

// TestHoldoutSubsetScoreOnView checks scoring through a dataset view gathers
// the mapped backing columns.
func TestHoldoutSubsetScoreOnView(t *testing.T) {
	ds := subsetFixture(100, 5, 11)
	v := ds.View([]int{4, 0, 1})
	sp := TrainTestSplit(ds, 0.25, 9)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 8, MaxDepth: 4, Seed: 3})
	}
	want := HoldoutScore(ds.SelectFeatures([]int{0, 1}), sp, fit)
	got := NewSubsetEvaluator(v, sp, fit, allColumns(v.D)).ScoreAt([]int{1, 2})
	if got != want {
		t.Fatalf("view subset score %v != backing subset score %v", got, want)
	}
}

// TestHoldoutSubsetScoreAllocs is the allocation-regression gate for the
// subset-scoring hot loop: warm pooled scoring must allocate far less than
// materializing a fresh matrix per subset.
func TestHoldoutSubsetScoreAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	ds := subsetFixture(400, 8, 5)
	sp := TrainTestSplit(ds, 0.25, 9)
	cols := []int{0, 1, 2, 3}
	// A trivial fitter isolates the scorer's own allocations from model
	// training (which allocates the same on both paths).
	fit := func(d *ml.Dataset) ml.Model { return constModel(0) }
	ev := NewSubsetEvaluator(ds, sp, fit, allColumns(ds.D))
	ev.ScoreAt(cols) // warm the pool
	pooled := testing.AllocsPerRun(20, func() {
		ev.ScoreAt(cols)
	})
	materialized := testing.AllocsPerRun(20, func() {
		HoldoutScore(ds.SelectFeatures(cols), sp, fit)
	})
	if pooled*2 > materialized {
		t.Fatalf("pooled scorer allocates too much: %.0f vs %.0f materialized", pooled, materialized)
	}
}

// constModel predicts a constant; it exists to isolate scorer allocations.
type constModel float64

func (m constModel) Predict([]float64) float64 { return float64(m) }

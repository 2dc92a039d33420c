package eval

import (
	"math"
	"sync"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
)

// TestSubsetEvaluatorMatchesHoldoutSubsetScore: ScoreAt over positions in a
// proper base subset must return exactly the materialized holdout score of
// the corresponding absolute columns — the gather-of-a-gather contract the
// RIFS threshold sweep relies on.
func TestSubsetEvaluatorMatchesHoldoutSubsetScore(t *testing.T) {
	ds := subsetFixture(160, 8, 21)
	sp := TrainTestSplit(ds, 0.25, 9)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 8, MaxDepth: 4, Seed: 3})
	}
	base := []int{0, 1, 3, 4, 7}
	ev := NewSubsetEvaluator(ds, sp, fit, base)
	cases := []struct {
		pos  []int
		cols []int
	}{
		{[]int{0, 1, 2, 3, 4}, base},
		{[]int{0, 2, 4}, []int{0, 3, 7}},
		{[]int{1}, []int{1}},
		{[]int{3, 4}, []int{4, 7}},
	}
	for _, tc := range cases {
		want := HoldoutScore(ds.SelectFeatures(tc.cols), sp, fit)
		got := ev.ScoreAt(tc.pos)
		if got != want {
			t.Fatalf("pos %v (cols %v): evaluator score %v != materialized subset score %v",
				tc.pos, tc.cols, got, want)
		}
		// Re-score to prove pooled scratch reuse does not leak state.
		if again := ev.ScoreAt(tc.pos); again != want {
			t.Fatalf("pos %v: score drifted on reuse: %v != %v", tc.pos, again, want)
		}
	}
}

// TestSubsetEvaluatorEmptySubset: an empty position list scores -Inf, the
// sweep's sentinel for "nothing selected".
func TestSubsetEvaluatorEmptySubset(t *testing.T) {
	ds := subsetFixture(80, 4, 3)
	sp := TrainTestSplit(ds, 0.25, 7)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 4, MaxDepth: 3, Seed: 1})
	}
	ev := NewSubsetEvaluator(ds, sp, fit, []int{0, 1})
	if got := ev.ScoreAt(nil); !math.IsInf(got, -1) {
		t.Fatalf("empty subset score %v, want -Inf", got)
	}
}

// TestSubsetEvaluatorConcurrent: the sweep scores distinct subsets
// concurrently; every concurrent score must equal its sequential value.
func TestSubsetEvaluatorConcurrent(t *testing.T) {
	ds := subsetFixture(150, 6, 17)
	sp := TrainTestSplit(ds, 0.25, 5)
	fit := func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 6, MaxDepth: 4, Seed: 2})
	}
	base := []int{0, 1, 2, 3, 5}
	ev := NewSubsetEvaluator(ds, sp, fit, base)
	subsets := [][]int{{0, 1, 2, 3, 4}, {0, 1, 2}, {1, 3}, {4}, {0, 4}, {2}}
	want := make([]float64, len(subsets))
	for i, pos := range subsets {
		want[i] = ev.ScoreAt(pos)
	}
	got := make([]float64, len(subsets))
	var wg sync.WaitGroup
	for i, pos := range subsets {
		wg.Add(1)
		go func(i int, pos []int) {
			defer wg.Done()
			got[i] = ev.ScoreAt(pos)
		}(i, pos)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subset %v: concurrent score %v != sequential %v", subsets[i], got[i], want[i])
		}
	}
}

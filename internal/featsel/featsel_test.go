package featsel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/ml"
)

// planted builds a dataset with `signal` informative features followed by
// `noise` pure-noise features.
func planted(task ml.Task, n, signal, noise int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := signal + noise
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if task == ml.Classification {
			label := i % 2
			y[i] = float64(label)
			for j := 0; j < signal; j++ {
				row[j] += float64(label) * 2
			}
		} else {
			for j := 0; j < signal; j++ {
				y[i] += 2 * row[j]
			}
			y[i] += 0.2 * rng.NormFloat64()
		}
	}
	classes := 0
	if task == ml.Classification {
		classes = 2
	}
	ds, err := ml.NewDataset(x, n, d, y, task, classes)
	if err != nil {
		panic(err)
	}
	return ds
}

// fastForest is a small estimator for wrapper tests.
func fastForest(seed int64) eval.Fitter {
	return func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 15, MaxDepth: 6, Seed: seed})
	}
}

// signalOnTop checks that every signal feature outranks every noise feature.
func signalOnTop(t *testing.T, name string, scores []float64, signal int) {
	t.Helper()
	noiseMax := math.Inf(-1)
	for j := signal; j < len(scores); j++ {
		if scores[j] > noiseMax {
			noiseMax = scores[j]
		}
	}
	for j := 0; j < signal; j++ {
		if scores[j] <= noiseMax {
			t.Fatalf("%s: signal score %v (feature %d) not above noise max %v",
				name, scores[j], j, noiseMax)
		}
	}
}

func TestRanksOf(t *testing.T) {
	r := RanksOf([]float64{10, 30, 20})
	if r[1] != 1 || r[0] != 0 || math.Abs(r[2]-0.5) > 1e-12 {
		t.Fatalf("ranks = %v", r)
	}
	// Ties share the mean rank.
	tied := RanksOf([]float64{5, 5, 1})
	if tied[0] != tied[1] || tied[2] != 0 {
		t.Fatalf("tied ranks = %v", tied)
	}
	// NaNs rank lowest.
	withNaN := RanksOf([]float64{math.NaN(), 2})
	if withNaN[0] != 0 || withNaN[1] != 1 {
		t.Fatalf("NaN ranks = %v", withNaN)
	}
}

func TestOrder(t *testing.T) {
	o := Order([]float64{1, 9, 5})
	if o[0] != 1 || o[1] != 2 || o[2] != 0 {
		t.Fatalf("order = %v", o)
	}
}

func TestFTestRankerBothTasks(t *testing.T) {
	r := &FTestRanker{}
	for _, task := range []ml.Task{ml.Classification, ml.Regression} {
		ds := planted(task, 300, 2, 6, 10)
		scores, err := r.Rank(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		signalOnTop(t, "f-test "+task.String(), scores, 2)
	}
}

func TestMutualInfoRanker(t *testing.T) {
	r := &MutualInfoRanker{}
	ds := planted(ml.Classification, 400, 2, 6, 11)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "mutual info", scores, 2)
}

func TestForestRanker(t *testing.T) {
	r := &ForestRanker{NTrees: 30}
	ds := planted(ml.Regression, 300, 2, 6, 12)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "random forest", scores, 2)
}

func TestSparseRegressionRanker(t *testing.T) {
	r := &SparseRegressionRanker{}
	ds := planted(ml.Regression, 200, 2, 10, 13)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "sparse regression", scores, 2)
}

func TestLinearSVCRankerClassificationOnly(t *testing.T) {
	ds := planted(ml.Classification, 300, 2, 6, 15)
	r := &LinearSVCRanker{}
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, r.Name(), scores, 2)
	if r.Supports(ml.Regression) {
		t.Fatalf("%s should not support regression", r.Name())
	}
	if _, err := r.Rank(planted(ml.Regression, 50, 1, 1, 15), 1); err == nil {
		t.Fatal("linear svc must reject regression")
	}
}

func TestReliefRankerClassification(t *testing.T) {
	r := &ReliefRanker{K: 5, Samples: 100}
	ds := planted(ml.Classification, 250, 2, 5, 16)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "relief", scores, 2)
}

func TestReliefRankerRegression(t *testing.T) {
	r := &ReliefRanker{K: 7, Samples: 120}
	ds := planted(ml.Regression, 250, 2, 4, 17)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	// RReliefF is noisier; require signal features in the top half.
	order := Order(scores)
	top := map[int]bool{}
	for _, j := range order[:3] {
		top[j] = true
	}
	if !top[0] && !top[1] {
		t.Fatalf("rrelief lost both signal features: order = %v", order)
	}
}

func TestExponentialSearchFindsPlantedSize(t *testing.T) {
	ds := planted(ml.Classification, 400, 4, 28, 19)
	order := make([]int, ds.D)
	for i := range order {
		order[i] = i // signal first: the ideal ordering
	}
	sel := ExponentialSearch(ds, order, fastForest(1), 20)
	if len(sel) < 2 || len(sel) > 16 {
		t.Fatalf("selected %d features from ideal ordering, want a small prefix", len(sel))
	}
	for _, j := range sel[:2] {
		if j >= 4 {
			t.Fatalf("top of selection should be signal features, got %v", sel)
		}
	}
}

// TestExponentialSearchMatchesMaterializedScoring: the search over the shared
// SubsetEvaluator must select exactly what the same search selects when every
// prefix is scored by materializing its columns, on a view-backed dataset and
// with a shuffled (non-ascending) order such as a ranking produces.
func TestExponentialSearchMatchesMaterializedScoring(t *testing.T) {
	for _, task := range []ml.Task{ml.Classification, ml.Regression} {
		backing := planted(task, 240, 3, 21, 37)
		perm := rand.New(rand.NewSource(5)).Perm(backing.D)
		ds := backing.View(perm[:18])
		order := rand.New(rand.NewSource(6)).Perm(ds.D)
		est := fastForest(4)
		split := eval.TrainTestSplit(ds, 0.25, 44)
		scored := 0
		want := exponentialSearch(order, func(cols []int) float64 {
			scored++
			return eval.HoldoutScore(ds.SelectFeatures(cols), split, est)
		})
		got := ExponentialSearch(ds, order, est, 44)
		scorer := newSubsetScorer(ds, est, 44)
		for k := 1; k <= ds.D; k++ {
			mat := eval.HoldoutScore(ds.SelectFeatures(order[:k]), split, est)
			if sc := scorer.ScoreAt(order[:k]); sc != mat {
				t.Fatalf("task %v prefix %d: evaluator score %v != materialized %v", task, k, sc, mat)
			}
		}
		if scored < 2 {
			t.Fatalf("task %v: reference search scored %d subsets", task, scored)
		}
		if len(got) != len(want) {
			t.Fatalf("task %v: selected %v, materialized scoring selects %v", task, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("task %v: selected %v, materialized scoring selects %v", task, got, want)
			}
		}
	}
}

func TestRankingSelectorEndToEnd(t *testing.T) {
	ds := planted(ml.Regression, 300, 3, 20, 21)
	s := &RankingSelector{Ranker: &FTestRanker{}}
	sel, err := s.Select(ds, fastForest(2), 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("selector returned nothing")
	}
	hits := 0
	for _, j := range sel {
		if j < 3 {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("selected %v, want most signal features", sel)
	}
}

func TestRegistry(t *testing.T) {
	for _, m := range AllMethods() {
		sel, err := New(m)
		if err != nil {
			t.Fatalf("New(%s): %v", m, err)
		}
		if sel.Name() != string(m) {
			t.Fatalf("selector name %q != method %q", sel.Name(), m)
		}
	}
	_, err := New("lasso")
	if err == nil {
		t.Fatal("unknown method should error")
	}
	for _, m := range AllMethods() {
		if !strings.Contains(err.Error(), string(m)) {
			t.Fatalf("unknown-method error %q does not list %q", err, m)
		}
		sel, _ := New(m)
		if !sel.Supports(ml.Classification) {
			t.Fatalf("%s should support classification", m)
		}
		if want := m != MethodLinearSVC; sel.Supports(ml.Regression) != want {
			t.Fatalf("%s Supports(regression) = %v, want %v", m, !want, want)
		}
	}
}

// TestNewRejectsRemovedMethods: each method an earlier version registered and
// this one deleted is an unknown method, and the error names it and lists
// every valid method, so a stale spec or flag says what to use instead.
func TestNewRejectsRemovedMethods(t *testing.T) {
	for _, name := range []Method{
		"sparse regression", "lasso", "logistic reg",
		"forward selection", "backward selection", "rfe",
	} {
		t.Run(string(name), func(t *testing.T) {
			sel, err := New(name)
			if err == nil {
				t.Fatalf("New(%q) = %s, want an unknown-method error", name, sel.Name())
			}
			if !strings.Contains(err.Error(), `unknown method "`+string(name)+`"`) {
				t.Fatalf("error %q does not name %q", err, name)
			}
			if !strings.Contains(err.Error(), MethodNames()) {
				t.Fatalf("error %q does not list the valid methods %q", err, MethodNames())
			}
		})
	}
}

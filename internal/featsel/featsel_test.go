package featsel

import (
	"math"
	"math/rand"
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

func TestLassoRankerRegressionOnly(t *testing.T) {
	r := &LassoRanker{}
	ds := planted(ml.Regression, 200, 2, 6, 14)
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "lasso", scores, 2)
	cds := planted(ml.Classification, 50, 1, 1, 14)
	if _, err := r.Rank(cds, 1); err == nil {
		t.Fatal("lasso must reject classification")
	}
	if r.Supports(ml.Classification) {
		t.Fatal("lasso Supports(classification) should be false")
	}
}

func TestLogisticAndSVCRankersClassificationOnly(t *testing.T) {
	ds := planted(ml.Classification, 300, 2, 6, 15)
	for _, r := range []Ranker{&LogisticRanker{}, &LinearSVCRanker{}} {
		scores, err := r.Rank(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		signalOnTop(t, r.Name(), scores, 2)
		if r.Supports(ml.Regression) {
			t.Fatalf("%s should not support regression", r.Name())
		}
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

func TestChiSquaredRanker(t *testing.T) {
	// Chi² needs non-negative features.
	n := 200
	d := 4
	x := make([]float64, n*d)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < n; i++ {
		label := i % 2
		y[i] = float64(label)
		x[i*d] = float64(label*3) + rng.Float64()
		for j := 1; j < d; j++ {
			x[i*d+j] = rng.Float64() * 3
		}
	}
	ds, _ := ml.NewDataset(x, n, d, y, ml.Classification, 2)
	r := &ChiSquaredRanker{}
	scores, err := r.Rank(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	signalOnTop(t, "chi-squared", scores, 1)
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

func TestForwardSelector(t *testing.T) {
	ds := planted(ml.Classification, 300, 2, 10, 23)
	s := &ForwardSelector{MaxFeatures: 6, MaxCandidates: -1}
	sel, err := s.Select(ds, fastForest(3), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("forward selection chose nothing")
	}
	if sel[0] >= 2 {
		t.Fatalf("first greedy pick %d should be a signal feature", sel[0])
	}
}

func TestBackwardSelector(t *testing.T) {
	ds := planted(ml.Classification, 200, 2, 6, 25)
	s := &BackwardSelector{MaxCandidates: -1}
	sel, err := s.Select(ds, fastForest(4), 26)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < 2 {
		t.Fatalf("backward elimination kept %d features", len(sel))
	}
	keep := map[int]bool{}
	for _, j := range sel {
		keep[j] = true
	}
	if !keep[0] && !keep[1] {
		t.Fatal("backward elimination removed all signal features")
	}
}

func TestRFESelector(t *testing.T) {
	ds := planted(ml.Classification, 300, 2, 14, 27)
	s := &RFESelector{}
	sel, err := s.Select(ds, fastForest(5), 28)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[int]bool{}
	for _, j := range sel {
		keep[j] = true
	}
	if !keep[0] || !keep[1] {
		t.Fatalf("rfe dropped signal features: %v", sel)
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
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown method should error")
	}
	clsMethods := MethodsFor(ml.Classification)
	for _, m := range clsMethods {
		if m == MethodLasso {
			t.Fatal("lasso should be excluded for classification")
		}
	}
	regMethods := MethodsFor(ml.Regression)
	for _, m := range regMethods {
		if m == MethodLogistic || m == MethodLinearSVC {
			t.Fatalf("%s should be excluded for regression", m)
		}
	}
}

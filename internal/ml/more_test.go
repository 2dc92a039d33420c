package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/parallel"
)

func TestForestImportancesOnConstantTarget(t *testing.T) {
	// A constant target gives no splits and therefore zero importances.
	n := 50
	x := make([]float64, n*2)
	y := make([]float64, n)
	rng := newTestRNG(81)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ds, _ := NewDataset(x, n, 2, y, Regression, 0)
	f := FitForest(ds, ForestConfig{NTrees: 5, Seed: 1})
	for j, v := range f.Importances() {
		if v != 0 {
			t.Fatalf("importance[%d] = %v on constant target", j, v)
		}
	}
	if got := f.Predict(ds.Row(0)); got != 0 {
		t.Fatalf("constant-target prediction = %v", got)
	}
}

func TestForestSingleSample(t *testing.T) {
	ds, _ := NewDataset([]float64{1}, 1, 1, []float64{7}, Regression, 0)
	f := FitForest(ds, ForestConfig{NTrees: 3, Seed: 1})
	if got := f.Predict([]float64{5}); got != 7 {
		t.Fatalf("single-sample forest predicts %v", got)
	}
}

func TestTreeMTryOne(t *testing.T) {
	ds := makeClassification(100, 2, 2, 82)
	rng := newTestRNG(83)
	tree := FitTree(ds, nil, TreeConfig{MTry: 1, MaxDepth: 6}, rng)
	if tree.NumNodes() < 3 {
		t.Fatal("MTry=1 tree failed to split at all")
	}
}

func TestPredictAllLength(t *testing.T) {
	ds := makeRegression(30, 1, 86)
	m := FitForest(ds, ForestConfig{NTrees: 3, MaxDepth: 4, Seed: 1})
	if got := PredictAll(m, ds); len(got) != ds.N {
		t.Fatalf("PredictAll length = %d", len(got))
	}
}

// TestPredictAllAnyWorkers: PredictAll runs Predict from several pool workers
// at once, so every model must only read its fitted state (the race detector
// is the judge) and the predictions must equal a serial loop's at any worker
// count — over several row blocks, a short last block, and a column view.
func TestPredictAllAnyWorkers(t *testing.T) {
	cls := makeClassification(3*predictBlock+17, 2, 4, 87)
	reg := makeRegression(3*predictBlock+17, 3, 88)
	view := reg.View([]int{0, 1, 3})
	cases := []struct {
		name string
		m    Model
		ds   *Dataset
	}{
		{"tree", FitTree(reg, nil, TreeConfig{MaxDepth: 6}, rand.New(rand.NewSource(1))), reg},
		{"forest reg", FitForest(reg, ForestConfig{NTrees: 5, MaxDepth: 6, Seed: 2}), reg},
		{"forest cls", FitForest(cls, ForestConfig{NTrees: 5, MaxDepth: 6, Seed: 3}), cls},
		{"forest view", FitForest(view, ForestConfig{NTrees: 5, MaxDepth: 6, Seed: 4}), view},
		{"linear svm", FitLinearSVM(cls, SVMConfig{Epochs: 2, Seed: 6}), cls},
	}
	defer parallel.SetMaxWorkers(0)
	for _, tc := range cases {
		want := make([]float64, tc.ds.N)
		for i := range want {
			want[i] = tc.m.Predict(tc.ds.Row(i))
		}
		for _, workers := range []int{1, 8} {
			parallel.SetMaxWorkers(workers)
			got := PredictAll(tc.m, tc.ds)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s at %d workers: row %d predicted %v, serial loop %v", tc.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: forest classification predictions are valid class codes on
// arbitrary (finite) inputs.
func TestForestPredictionRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		classes := 2 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		x := make([]float64, n*d)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			y[i] = float64(rng.Intn(classes))
		}
		ds, err := NewDataset(x, n, d, y, Classification, classes)
		if err != nil {
			return false
		}
		forest := FitForest(ds, ForestConfig{NTrees: 5, MaxDepth: 4, Seed: seed})
		for i := 0; i < n; i++ {
			p := int(forest.Predict(ds.Row(i)))
			if p < 0 || p >= classes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: standardization then ApplyVec is the identity on training rows
// up to the z-scoring map (mean ~0 overall).
func TestStandardizationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d := 1 + rng.Intn(4)
		x := make([]float64, n*d)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		ds, err := NewDataset(x, n, d, make([]float64, n), Regression, 0)
		if err != nil {
			return false
		}
		std := FitStandardization(ds)
		// Invert: x = z*scale + mean must reproduce the original.
		for i := 0; i < n; i++ {
			z := std.ApplyVec(ds.Row(i))
			for j := 0; j < d; j++ {
				back := z[j]*std.Scale[j] + std.Mean[j]
				if math.Abs(back-ds.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package coreset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/ml"
)

func TestUniformIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := UniformIndices(100, 30, rng)
	if len(idx) != 30 {
		t.Fatalf("len = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad index %d", i)
		}
		seen[i] = true
	}
	all := UniformIndices(10, 50, rng)
	if len(all) != 10 {
		t.Fatalf("oversized request should return all rows, got %d", len(all))
	}
}

func TestStratifiedIndicesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 90% class 0, 10% class 1: a stratified sample keeps class 1 present.
	labels := make([]int, 1000)
	for i := 900; i < 1000; i++ {
		labels[i] = 1
	}
	idx := StratifiedIndices(labels, 2, 100, rng)
	count1 := 0
	for _, i := range idx {
		if labels[i] == 1 {
			count1++
		}
	}
	if count1 < 5 || count1 > 15 {
		t.Fatalf("minority class count = %d, want ~10", count1)
	}
}

func TestStratifiedGuaranteesRarestLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := make([]int, 500)
	labels[499] = 1 // single example of class 1
	idx := StratifiedIndices(labels, 2, 50, rng)
	found := false
	for _, i := range idx {
		if labels[i] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("stratified sample must include every observed label")
	}
}

func TestDefaultSize(t *testing.T) {
	if got := DefaultSize(100); got != 100 {
		t.Fatalf("DefaultSize(100) = %d", got)
	}
	if got := DefaultSize(10000); got != 1000 {
		t.Fatalf("DefaultSize(10000) = %d", got)
	}
	if got := DefaultSize(1000); got != 256 {
		t.Fatalf("DefaultSize(1000) = %d", got)
	}
}

func TestOSNAPNormPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d := 2000, 4
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	o := NewOSNAP(n, 400, rng)
	sx := o.Apply(x, n, d)
	// Column norms should be preserved within a modest factor.
	for j := 0; j < d; j++ {
		var orig, sk float64
		for i := 0; i < n; i++ {
			orig += x[i*d+j] * x[i*d+j]
		}
		for i := 0; i < o.L; i++ {
			sk += sx[i*d+j] * sx[i*d+j]
		}
		ratio := sk / orig
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("col %d norm ratio = %v", j, ratio)
		}
	}
}

func TestOSNAPVecMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	o := NewOSNAP(n, 10, rng)
	v := o.ApplyVec(y)
	m := o.Apply(y, n, 1)
	for i := range v {
		if math.Abs(v[i]-m[i]) > 1e-12 {
			t.Fatal("ApplyVec disagrees with Apply on a 1-column matrix")
		}
	}
}

func classificationDS(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = float64(i % 2)
		x[i*2] = rng.NormFloat64() + y[i]
		x[i*2+1] = rng.NormFloat64()
	}
	ds, _ := ml.NewDataset(x, n, 2, y, ml.Classification, 2)
	return ds
}

func TestSketchDatasetRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2 * x[i]
	}
	ds, _ := ml.NewDataset(x, n, 1, y, ml.Regression, 0)
	sk := SketchDataset(ds, 100, rng)
	if sk.N != 100 || sk.D != 1 {
		t.Fatalf("sketch shape = %dx%d", sk.N, sk.D)
	}
	// Linear structure survives sketching: y = 2x still holds exactly
	// because sketching is linear.
	for i := 0; i < sk.N; i++ {
		if math.Abs(sk.Y[i]-2*sk.At(i, 0)) > 1e-9 {
			t.Fatalf("sketched row %d broke linearity", i)
		}
	}
}

func TestSketchDatasetClassificationPerStratum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := classificationDS(400, 7)
	sk := SketchDataset(ds, 100, rng)
	if sk.N < 80 || sk.N > 120 {
		t.Fatalf("sketched rows = %d, want ~100", sk.N)
	}
	// Labels must remain valid class codes with both classes present.
	counts := map[int]int{}
	for i := 0; i < sk.N; i++ {
		counts[sk.Label(i)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("sketch lost a class stratum: %v", counts)
	}
}

func TestSampleStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := classificationDS(300, 8)
	if u := UniformIndices(ds.N, 50, rng); len(u) != 50 {
		t.Fatalf("uniform sample size = %d", len(u))
	}
	labels := make([]int, ds.N)
	for i := range labels {
		labels[i] = ds.Label(i)
	}
	if s := StratifiedIndices(labels, ds.Classes, 50, rng); len(s) < 45 || len(s) > 55 {
		t.Fatalf("stratified sample size = %d", len(s))
	}
}

// Property: OSNAP embedding is linear — Π(a·x) = a·Π(x).
func TestOSNAPLinearityProperty(t *testing.T) {
	f := func(seed int64, scale float64) bool {
		if math.IsNaN(scale) || math.Abs(scale) > 1e100 {
			return true // avoid float overflow in the oracle itself
		}
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		y := make([]float64, n)
		sy := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			sy[i] = scale * y[i]
		}
		o := NewOSNAP(n, 8, rng)
		a := o.ApplyVec(y)
		b := o.ApplyVec(sy)
		for i := range a {
			if math.Abs(b[i]-scale*a[i]) > 1e-6*(1+math.Abs(scale)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if Uniform.String() != "uniform" || Stratified.String() != "stratified" || Sketch.String() != "sketch" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should still format")
	}
}

func TestSketchDatasetOversizedKeepsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := classificationDS(50, 11)
	sk := SketchDataset(ds, 500, rng)
	if sk.N != 50 {
		t.Fatalf("oversized sketch should keep all rows, got %d", sk.N)
	}
}

func TestSketchDatasetTinyStratumKeptVerbatim(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// 99 rows class 0, 1 row class 1: the singleton stratum is passed
	// through unsketched.
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
	}
	y[99] = 1
	ds, _ := ml.NewDataset(x, 100, 1, y, ml.Classification, 2)
	sk := SketchDataset(ds, 20, rng)
	found := false
	for i := 0; i < sk.N; i++ {
		if sk.Label(i) == 1 && sk.At(i, 0) == 99 {
			found = true
		}
	}
	if !found {
		t.Fatal("singleton stratum should survive sketching verbatim")
	}
}

package automl

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
)

func separable(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := i % 2
		y[i] = float64(label)
		x[i*3] = float64(label)*3 + rng.NormFloat64()
		x[i*3+1] = rng.NormFloat64()
		x[i*3+2] = rng.NormFloat64()
	}
	ds, _ := ml.NewDataset(x, n, 3, y, ml.Classification, 2)
	return ds
}

func TestDefaultEstimator(t *testing.T) {
	ds := separable(200, 5)
	m := DefaultEstimator(1)(ds)
	hits := 0
	for i := 0; i < ds.N; i++ {
		if int(m.Predict(ds.Row(i))) == ds.Label(i) {
			hits++
		}
	}
	if float64(hits)/float64(ds.N) < 0.9 {
		t.Fatal("default estimator underfits a separable problem")
	}
}

package ml

import (
	"math"
	"testing"
)

func TestLassoSparsity(t *testing.T) {
	ds := makeRegression(300, 8, 11)
	m := FitLasso(ds, LassoConfig{Lambda: 0.2})
	w := m.Coefficients()
	// Signal features (0, 1) stay large; noise features shrink to ~0.
	if math.Abs(w[0]) < 0.5 || math.Abs(w[1]) < 0.5 {
		t.Fatalf("lasso killed signal: %v", w[:2])
	}
	for j := 2; j < ds.D; j++ {
		if math.Abs(w[j]) > 0.2 {
			t.Fatalf("lasso noise coef w[%d] = %v", j, w[j])
		}
	}
}

func TestLassoHeavyPenaltyZeroesEverything(t *testing.T) {
	ds := makeRegression(100, 2, 12)
	m := FitLasso(ds, LassoConfig{Lambda: 1e6})
	for j, w := range m.Coefficients() {
		if w != 0 {
			t.Fatalf("w[%d] = %v under huge lambda", j, w)
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ z, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.z, c.t); got != c.want {
			t.Fatalf("softThreshold(%v, %v) = %v, want %v", c.z, c.t, got, c.want)
		}
	}
}

func TestLogisticBinary(t *testing.T) {
	ds := makeClassification(400, 2, 3, 13)
	m := FitLogistic(ds, LogisticConfig{})
	if acc := accuracyOf(m, ds); acc < 0.9 {
		t.Fatalf("logistic accuracy = %v", acc)
	}
	fw := m.FeatureWeights()
	if fw[0] < fw[3] || fw[1] < fw[4] {
		t.Fatalf("signal weights not above noise: %v", fw)
	}
}

func TestLogisticMulticlass(t *testing.T) {
	// Three well-separated clusters on a line.
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		k := i % 3
		y[i] = float64(k)
		x[i] = float64(k)*4 + 0.5*float64(i%7)/7
	}
	ds, _ := NewDataset(x, n, 1, y, Classification, 3)
	m := FitLogistic(ds, LogisticConfig{MaxIter: 500})
	if acc := accuracyOf(m, ds); acc < 0.95 {
		t.Fatalf("multiclass logistic accuracy = %v", acc)
	}
}

func TestLinearSVM(t *testing.T) {
	ds := makeClassification(400, 2, 3, 14)
	m := FitLinearSVM(ds, SVMConfig{Seed: 3})
	if acc := accuracyOf(m, ds); acc < 0.9 {
		t.Fatalf("linear svm accuracy = %v", acc)
	}
	fw := m.FeatureWeights()
	if fw[0] < fw[2] {
		t.Fatalf("svm signal weight below noise: %v", fw)
	}
}

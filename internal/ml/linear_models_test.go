package ml

import "testing"

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

package ml

import (
	"math"
	"math/rand"
)

// SVMConfig controls linear (Pegasos) SVM training.
type SVMConfig struct {
	// Lambda is the regularization strength (default 1e-3).
	Lambda float64
	// Epochs is the number of passes over the data (default 20).
	Epochs int
	// Seed seeds the SGD sample order.
	Seed int64
}

// LinearSVM is a one-vs-rest linear SVM over standardized features.
type LinearSVM struct {
	// W is classes×d (a single row for binary, trained as +1/−1).
	W       []float64
	B       []float64
	classes int
	d       int
	std     *Standardization
}

// FitLinearSVM trains a one-vs-rest hinge-loss SVM with the Pegasos
// subgradient method.
func FitLinearSVM(ds *Dataset, cfg SVMConfig) *LinearSVM {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	std := FitStandardization(ds)
	sds := std.Apply(ds)
	n, d, c := sds.N, sds.D, sds.Classes
	m := &LinearSVM{
		W:       make([]float64, c*d),
		B:       make([]float64, c),
		classes: c,
		d:       d,
		std:     std,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)
	for k := 0; k < c; k++ {
		w := m.W[k*d : (k+1)*d]
		b := 0.0
		t := 0
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				t++
				eta := 1 / (cfg.Lambda * float64(t))
				y := -1.0
				if sds.Label(i) == k {
					y = 1
				}
				row := sds.Row(i)
				margin := b
				for j, v := range row {
					margin += w[j] * v
				}
				margin *= y
				// w ← (1−ηλ)w (+ ηy·x if margin < 1)
				shrink := 1 - eta*cfg.Lambda
				if shrink < 0 {
					shrink = 0
				}
				for j := range w {
					w[j] *= shrink
				}
				if margin < 1 {
					for j, v := range row {
						w[j] += eta * y * v
					}
					b += eta * y
				}
			}
		}
		m.B[k] = b
	}
	return m
}

// Predict returns the class with the highest one-vs-rest score (for binary
// problems this reduces to the sign of the positive-class score).
func (m *LinearSVM) Predict(x []float64) float64 {
	sx := m.std.ApplyVec(x)
	best, bestK := math.Inf(-1), 0
	for k := 0; k < m.classes; k++ {
		w := m.W[k*m.d : (k+1)*m.d]
		s := m.B[k]
		for j, v := range sx {
			s += w[j] * v
		}
		if s > best {
			best, bestK = s, k
		}
	}
	return float64(bestK)
}

// FeatureWeights returns the per-feature ℓ2 norm across class weight vectors,
// usable as a feature ranking.
func (m *LinearSVM) FeatureWeights() []float64 {
	out := make([]float64, m.d)
	for j := 0; j < m.d; j++ {
		s := 0.0
		for k := 0; k < m.classes; k++ {
			w := m.W[k*m.d+j]
			s += w * w
		}
		out[j] = math.Sqrt(s)
	}
	return out
}

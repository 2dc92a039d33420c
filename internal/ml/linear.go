package ml

import (
	"math"

	"github.com/arda-ml/arda/internal/linalg"
)

// LinearModel is a fitted linear predictor y = w·x + b over standardized
// features.
type LinearModel struct {
	W   []float64
	B   float64
	std *Standardization
}

// Predict returns the linear prediction for x.
func (m *LinearModel) Predict(x []float64) float64 {
	if m.std != nil {
		x = m.std.ApplyVec(x)
	}
	return linalg.Dot(m.W, x) + m.B
}

// Coefficients returns the weight vector in standardized feature space; its
// absolute values are comparable across features and usable as a ranking.
func (m *LinearModel) Coefficients() []float64 { return m.W }

// LassoConfig controls coordinate-descent lasso fitting.
type LassoConfig struct {
	// Lambda is the ℓ1 penalty strength (default 0.01·λmax behaviour is the
	// caller's business; a plain default of 0.1 is used when <= 0).
	Lambda float64
	// MaxIter bounds full coordinate sweeps (default 200).
	MaxIter int
	// Tol is the convergence tolerance on max coefficient change (default
	// 1e-5).
	Tol float64
}

// FitLasso fits lasso regression via cyclic coordinate descent on
// standardized features with an unpenalized intercept.
func FitLasso(ds *Dataset, cfg LassoConfig) *LinearModel {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 0.1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}
	std := FitStandardization(ds)
	sds := std.Apply(ds)
	n, d := sds.N, sds.D
	yMean := 0.0
	for _, v := range sds.Y {
		yMean += v
	}
	yMean /= float64(n)

	w := make([]float64, d)
	// residual r = y_centered - Xw (w starts at 0).
	r := make([]float64, n)
	for i := range r {
		r[i] = sds.Y[i] - yMean
	}
	// Column squared norms (constant: standardized columns have norm² = n).
	colSq := make([]float64, d)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			v := sds.At(i, j)
			s += v * v
		}
		colSq[j] = s
	}
	lam := cfg.Lambda * float64(n)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < d; j++ {
			if colSq[j] <= 1e-12 {
				continue
			}
			// rho = x_j · r + w_j * ||x_j||²
			rho := 0.0
			for i := 0; i < n; i++ {
				rho += sds.At(i, j) * r[i]
			}
			rho += w[j] * colSq[j]
			wj := softThreshold(rho, lam) / colSq[j]
			if wj != w[j] {
				delta := wj - w[j]
				for i := 0; i < n; i++ {
					r[i] -= delta * sds.At(i, j)
				}
				if math.Abs(delta) > maxDelta {
					maxDelta = math.Abs(delta)
				}
				w[j] = wj
			}
		}
		if maxDelta < cfg.Tol {
			break
		}
	}
	return &LinearModel{W: w, B: yMean, std: std}
}

// softThreshold is the lasso proximal operator sign(z)·max(|z|−t, 0).
func softThreshold(z, t float64) float64 {
	switch {
	case z > t:
		return z - t
	case z < -t:
		return z + t
	default:
		return 0
	}
}

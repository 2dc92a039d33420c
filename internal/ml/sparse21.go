package ml

import (
	"math"
	"math/rand"

	"github.com/arda-ml/arda/internal/linalg"
)

// Sparse21Config controls the ℓ2,1-norm sparse-regression solver for
//
//	min_W ‖XW − Y‖₂,₁ + γ‖Wᵀ‖₂,₁
//
// (rows of W are per-feature weight vectors across targets/classes; the
// regularizer drives entire feature rows to zero jointly).
type Sparse21Config struct {
	// Gamma is the regularization strength γ (default 0.1).
	Gamma float64
	// MaxIter bounds IRLS iterations (default 15).
	MaxIter int
	// Tol stops when the relative change in the objective falls below it
	// (default 1e-4).
	Tol float64
	// Eps smooths the IRLS reweighting to avoid division by zero (default
	// 1e-8).
	Eps float64
	// MaxRows caps the number of rows entering the solve; when the input has
	// more, a uniform row subsample (seeded by Seed) is used. Zero means no
	// cap. This mirrors the paper's use of coresets/sketches to keep the
	// sparse-regression objective tractable.
	MaxRows int
	// Seed seeds the row subsample when MaxRows applies.
	Seed int64
	// RobustLabels enables the modified objective of §6.2 for classification:
	// after each W-step, rows whose current prediction overwhelmingly favors
	// a different class have their one-hot target relaxed toward that class,
	// fitting a consistent labelling under label corruption.
	RobustLabels bool
}

// Sparse21Result is the fitted solution and its derived feature ranking.
type Sparse21Result struct {
	// W is the d×c weight matrix in standardized feature space.
	W *linalg.Matrix
	// RowNorms is ‖w_j‖₂ per feature — the feature ranking score.
	RowNorms []float64
	// Iterations is the number of IRLS steps performed.
	Iterations int
	// Objective is the final value of the loss.
	Objective float64
}

// SolveSparse21 minimizes the joint ℓ2,1 objective with iteratively
// reweighted least squares. Each W-step solves the weighted ridge system in
// the n-dimensional dual via the Woodbury identity, so the per-iteration cost
// is O(n²d + n³) — linear in the number of features, which in ARDA vastly
// exceeds the coreset size.
func SolveSparse21(ds *Dataset, cfg Sparse21Config) (*Sparse21Result, error) {
	if cfg.Gamma <= 0 {
		cfg.Gamma = 0.1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 15
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 1e-8
	}
	work := ds
	if cfg.MaxRows > 0 && ds.N > cfg.MaxRows {
		rng := rand.New(rand.NewSource(cfg.Seed))
		idx := rng.Perm(ds.N)[:cfg.MaxRows]
		work = ds.Subset(idx)
	}
	std := FitStandardization(work)
	sds := std.Apply(work)
	n, d := sds.N, sds.D

	// Build the target matrix: one-hot classes or the centered target.
	var c int
	var y *linalg.Matrix
	if sds.Task == Classification {
		c = sds.Classes
		y = linalg.NewMatrix(n, c)
		for i := 0; i < n; i++ {
			y.Set(i, sds.Label(i), 1)
		}
	} else {
		c = 1
		y = linalg.NewMatrix(n, 1)
		mean := 0.0
		for _, v := range sds.Y {
			mean += v
		}
		mean /= float64(n)
		for i, v := range sds.Y {
			y.Set(i, 0, v-mean)
		}
	}

	x := &linalg.Matrix{Rows: n, Cols: d, Data: sds.X}
	w := linalg.NewMatrix(d, c)
	// IRLS diagonal weights; the first iteration uses unit weights, which
	// corresponds to a plain ridge warm start.
	uInv := make([]float64, n) // 1/u_i = 2·max(‖x_iW − y_i‖, ε)
	vInv := make([]float64, d) // 1/v_j = 2·max(‖w_j‖, ε)
	for i := range uInv {
		uInv[i] = 1
	}
	for j := range vInv {
		vInv[j] = 1
	}

	prevObj := math.Inf(1)
	res := &Sparse21Result{}
	xs := linalg.NewMatrix(n, d) // X·diag(s), s_j = vInv_j/γ
	g := linalg.NewMatrix(n, n)
	pred := linalg.NewMatrix(n, c)
	var spd linalg.SPDSolver // factor/solve buffers reused across iterations
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Xs = X·diag(vInv/γ); G = Xs·Xᵀ + diag(uInv).
		for i := 0; i < n; i++ {
			xrow := x.Row(i)
			srow := xs.Row(i)
			for j := 0; j < d; j++ {
				srow[j] = xrow[j] * vInv[j] / cfg.Gamma
			}
		}
		// The Gram upper triangle is the IRLS bottleneck (O(n²d)); computing
		// four G entries per pass over a row — each with its own sequential
		// accumulator — keeps the results bit-identical to one-at-a-time Dot
		// while overlapping the dependent-add latency. (Eight-wide was tried
		// and measured ~40% slower: the extra slice bases spill registers.)
		for a := 0; a < n; a++ {
			sa := xs.Row(a)
			grow := g.Row(a)
			b := a
			for ; b+4 <= n; b += 4 {
				grow[b], grow[b+1], grow[b+2], grow[b+3] =
					linalg.Dot4(sa, x.Row(b), x.Row(b+1), x.Row(b+2), x.Row(b+3))
			}
			for ; b < n; b++ {
				grow[b] = linalg.Dot(sa, x.Row(b))
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < a; b++ {
				g.Set(a, b, g.At(b, a))
			}
			g.Data[a*n+a] += uInv[a]
		}
		z, err := spd.Solve(g, y)
		if err != nil {
			return nil, err
		}
		// W = diag(vInv/γ)·Xᵀ·Z.
		for j := 0; j < d; j++ {
			for k := 0; k < c; k++ {
				w.Set(j, k, 0)
			}
		}
		for i := 0; i < n; i++ {
			xrow := xs.Row(i)
			zrow := z.Row(i)
			for j := 0; j < d; j++ {
				if xrow[j] == 0 {
					continue
				}
				wrow := w.Row(j)
				for k := 0; k < c; k++ {
					wrow[k] += float64(xrow[j] * zrow[k])
				}
			}
		}
		// Residuals, objective, and reweighting.
		obj := 0.0
		linalg.MulInto(pred, x, w)
		for i := 0; i < n; i++ {
			rnorm := 0.0
			prow := pred.Row(i)
			yrow := y.Row(i)
			for k := 0; k < c; k++ {
				dv := prow[k] - yrow[k]
				rnorm += float64(dv * dv)
			}
			rnorm = math.Sqrt(rnorm)
			obj += rnorm
			uInv[i] = 2 * math.Max(rnorm, cfg.Eps)
		}
		for j := 0; j < d; j++ {
			wn := linalg.Norm2(w.Row(j))
			obj += float64(cfg.Gamma * wn)
			vInv[j] = 2 * math.Max(wn, cfg.Eps)
		}
		if cfg.RobustLabels && sds.Task == Classification {
			relaxLabels(pred, y, sds)
		}
		res.Iterations = iter + 1
		res.Objective = obj
		if !math.IsInf(prevObj, 0) && math.Abs(prevObj-obj) <= cfg.Tol*math.Max(1, math.Abs(prevObj)) {
			break
		}
		prevObj = obj
	}
	res.W = w
	res.RowNorms = make([]float64, d)
	for j := 0; j < d; j++ {
		res.RowNorms[j] = linalg.Norm2(w.Row(j))
	}
	return res, nil
}

// relaxLabels implements the consistent-labelling variant: when the model's
// score for another class exceeds the observed class's score by a wide
// margin, the one-hot target is softened toward the predicted class, letting
// the solve tolerate corrupted labels.
func relaxLabels(pred, y *linalg.Matrix, ds *Dataset) {
	const margin = 0.5
	for i := 0; i < pred.Rows; i++ {
		obs := ds.Label(i)
		prow := pred.Row(i)
		best, bestK := math.Inf(-1), obs
		for k, v := range prow {
			if v > best {
				best, bestK = v, k
			}
		}
		if bestK != obs && best > prow[obs]+margin {
			yrow := y.Row(i)
			for k := range yrow {
				yrow[k] = 0
			}
			yrow[obs] = 0.5
			yrow[bestK] = 0.5
		}
	}
}

package coreset

import (
	"math"
	"math/rand"

	"github.com/arda-ml/arda/internal/linalg"
	"github.com/arda-ml/arda/internal/parallel"
)

// Leverage-score sampling is one of the "specialized coreset constructions"
// the paper's §3.1 points to ([55]): rows are drawn with probability
// proportional to their (ridge-regularized) statistical leverage
// τ_i = x_iᵀ(XᵀX + λI)⁻¹x_i, so influential/outlying rows — which uniform
// sampling is "agnostic to" — are kept with high probability. Intended for
// the base-table stage where rows vastly outnumber columns.

// LeverageScores computes ridge leverage scores for an n×d row-major matrix.
// lambda <= 0 selects a small scale-based default. Cost is O(nd² + d³).
func LeverageScores(x []float64, n, d int, lambda float64) ([]float64, error) {
	// Each worker owns one Gram row: entry (a, b) accumulates over rows i in
	// ascending order exactly as the sequential kernel did, so the Gram — and
	// everything downstream — is bit-identical for any worker count.
	gram := linalg.NewMatrix(d, d)
	parallel.ForEach(0, d, func(a int) {
		g := gram.Row(a)
		for i := 0; i < n; i++ {
			row := x[i*d : (i+1)*d]
			va := row[a]
			if va == 0 {
				continue
			}
			for b := a; b < d; b++ {
				g[b] += float64(va * row[b])
			}
		}
	})
	for a := 0; a < d; a++ {
		for b := 0; b < a; b++ {
			gram.Set(a, b, gram.At(b, a))
		}
	}
	if lambda <= 0 {
		trace := 0.0
		for a := 0; a < d; a++ {
			trace += gram.At(a, a)
		}
		lambda = 1e-8 * trace / float64(d)
		if lambda <= 0 {
			lambda = 1e-8
		}
	}
	for a := 0; a < d; a++ {
		gram.Data[a*d+a] += lambda
	}
	l, err := linalg.CholeskyJittered(gram, 0)
	if err != nil {
		return nil, err
	}
	// The per-row solves dominate (O(nd²)) and are independent: each row's
	// leverage lands in its own slot, so they fan out across the pool.
	scores := make([]float64, n)
	parallel.Blocks(0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x[i*d : (i+1)*d]
			sol := linalg.SolveCholesky(l, row)
			scores[i] = linalg.Dot(row, sol)
			if scores[i] < 0 {
				scores[i] = 0
			}
		}
	})
	return scores, nil
}

// LeverageIndices draws size row indices with probability proportional to
// leverage score (without replacement, via weighted reservoir-style
// exponential sorting). Rows with zero leverage fall back to a tiny floor so
// every row stays reachable.
func LeverageIndices(x []float64, n, d, size int, rng *rand.Rand) ([]int, error) {
	if size >= n {
		return allIndices(n), nil
	}
	scores, err := LeverageScores(x, n, d, 0)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	floor := 1e-12
	if total > 0 {
		floor = 1e-6 * total / float64(n)
	}
	// Weighted sampling without replacement (Efraimidis–Spirakis): order by
	// -ln(u)/w ascending and take the smallest `size` keys.
	type keyed struct {
		key float64
		i   int
	}
	keys := make([]keyed, n)
	for i, s := range scores {
		w := s + floor
		keys[i] = keyed{key: -math.Log(1-float64(rng.Float64())) / w, i: i}
	}
	// Partial selection of the `size` smallest keys.
	for pos := 0; pos < size; pos++ {
		best := pos
		for j := pos + 1; j < n; j++ {
			if keys[j].key < keys[best].key {
				best = j
			}
		}
		keys[pos], keys[best] = keys[best], keys[pos]
	}
	out := make([]int, size)
	for pos := 0; pos < size; pos++ {
		out[pos] = keys[pos].i
	}
	return out, nil
}

package coreset

import (
	"math"
	"math/rand"
	"testing"
)

func TestLeverageScoresFlagOutliers(t *testing.T) {
	// 200 rows clustered near the origin plus one far outlier: the outlier
	// must carry (much) more leverage.
	rng := rand.New(rand.NewSource(1))
	n, d := 201, 3
	x := make([]float64, n*d)
	for i := 0; i < 200; i++ {
		for j := 0; j < d; j++ {
			x[i*d+j] = rng.NormFloat64()
		}
	}
	for j := 0; j < d; j++ {
		x[200*d+j] = 50
	}
	scores, err := LeverageScores(x, n, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxNormal := 0.0
	for i := 0; i < 200; i++ {
		if scores[i] > maxNormal {
			maxNormal = scores[i]
		}
	}
	if scores[200] <= maxNormal {
		t.Fatalf("outlier leverage %v not above cluster max %v", scores[200], maxNormal)
	}
}

func TestLeverageScoresSumNearRank(t *testing.T) {
	// With λ → 0 and full-rank X, leverage scores sum to d.
	rng := rand.New(rand.NewSource(2))
	n, d := 300, 4
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	scores, err := LeverageScores(x, n, d, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	if sum < float64(d)-0.1 || sum > float64(d)+0.1 {
		t.Fatalf("leverage sum = %v, want ~%d", sum, d)
	}
}

func TestLeverageIndicesPrefersOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d := 400, 2
	x := make([]float64, n*d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x[i*d+j] = rng.NormFloat64() * 0.1
		}
	}
	// Ten extreme rows.
	for i := 0; i < 10; i++ {
		x[i*d] = 100
	}
	hits := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		idx, err := LeverageIndices(x, n, d, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			if i < 10 {
				hits++
			}
		}
	}
	// Uniform sampling would include each outlier with p = 0.1 → 1 of 10
	// per trial on average. Leverage sampling should catch nearly all 10.
	if hits < trials*7 {
		t.Fatalf("outliers sampled %d/%d times, want most", hits, trials*10)
	}
}

func TestLeverageIndicesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d := 100, 3
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	idx, err := LeverageIndices(x, n, d, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate index %d (sampling must be without replacement)", i)
		}
		seen[i] = true
	}
}

func TestLeverageSampleWiring(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, d := 300, 2
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	idx, err := LeverageIndices(x, n, d, 60, rng)
	if err != nil || len(idx) != 60 {
		t.Fatalf("leverage sample size = %d (%v)", len(idx), err)
	}
	// Oversized request returns everything.
	if all, err := LeverageIndices(x, n, d, 1000, rng); err != nil || len(all) != n {
		t.Fatalf("oversized leverage sample = %d (%v)", len(all), err)
	}
}

func randomMatrix(seed int64, n, d int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestLeverageScoresBounded(t *testing.T) {
	// A ridge leverage score x_iᵀ(XᵀX + λI)⁻¹x_i lies in [0, 1]; a row
	// that alone spans a direction scores close to 1.
	n, d := 120, 5
	x := randomMatrix(6, n, d)
	for j := 0; j < d; j++ {
		x[(n-1)*d+j] = 0
	}
	x[(n-1)*d] = 1e4
	scores, err := LeverageScores(x, n, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < 0 || s > 1+1e-9 {
			t.Fatalf("score[%d] = %v, outside [0, 1]", i, s)
		}
	}
	if scores[n-1] < 0.99 {
		t.Fatalf("dominant row scored %v, want ~1", scores[n-1])
	}
}

func TestLeverageScoresFollowRowOrder(t *testing.T) {
	// The Gram matrix does not depend on row order, so permuting the rows
	// permutes the scores and changes nothing else.
	n, d := 80, 3
	x := randomMatrix(7, n, d)
	perm := rand.New(rand.NewSource(8)).Perm(n)
	px := make([]float64, n*d)
	for i, p := range perm {
		copy(px[i*d:(i+1)*d], x[p*d:(p+1)*d])
	}
	scores, err := LeverageScores(x, n, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	pscores, err := LeverageScores(px, n, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if math.Abs(pscores[i]-scores[p]) > 1e-12 {
			t.Fatalf("row %d (was %d) scored %v, was %v", i, p, pscores[i], scores[p])
		}
	}
}

func TestLeverageIndicesSeeded(t *testing.T) {
	n, d := 200, 3
	x := randomMatrix(9, n, d)
	a, err := LeverageIndices(x, n, d, 25, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LeverageIndices(x, n, d, 25, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %d vs %d from the same seed", i, a[i], b[i])
		}
	}
}

func TestLeverageIndicesZeroRowsReachable(t *testing.T) {
	// An all-zero matrix gives every row zero leverage; the weight floor
	// keeps them all reachable, so the draw is still size distinct rows.
	n, d, size := 60, 2, 20
	idx, err := LeverageIndices(make([]float64, n*d), n, d, size, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != size {
		t.Fatalf("drew %d rows, want %d", len(idx), size)
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("bad or repeated index %d", i)
		}
		seen[i] = true
	}
}

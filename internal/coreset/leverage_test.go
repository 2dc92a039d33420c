package coreset

import (
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
	ds := classificationDS(300, 5)
	idx, err := LeverageIndices(ds.X, ds.N, ds.D, 60, rng)
	if err != nil || len(idx) != 60 {
		t.Fatalf("leverage sample size = %d (%v)", len(idx), err)
	}
	if Leverage.String() != "leverage" {
		t.Fatal("strategy name")
	}
	// Oversized request returns everything.
	if all, err := LeverageIndices(ds.X, ds.N, ds.D, 1000, rng); err != nil || len(all) != ds.N {
		t.Fatalf("oversized leverage sample = %d (%v)", len(all), err)
	}
}

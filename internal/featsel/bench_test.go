package featsel

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/testenv"
)

// BenchmarkRStar measures the K parallel injection repetitions of RIFS —
// the pipeline's dominant cost (paper §7, Figure 4) — at 1 worker vs all
// cores. The selected r* vector is identical either way; only wall-clock
// changes.
func BenchmarkRStar(b *testing.B) {
	ds := planted(ml.Classification, 300, 3, 30, 71)
	r := &RIFS{Config: RIFSConfig{K: 8, Forest: ForestRanker{NTrees: 20, MaxDepth: 8}}}
	testenv.BenchSpeedup(b, func() {
		if _, err := r.RStar(ds, 72); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkRStarRegression is the repetitions on the shape three of the four
// benchmark workloads run: a regression target over a 256-row coreset of 180
// real columns, a third of them one-hot groups of eight levels (an encoded
// base table) and the rest continuous, under RIFS's defaults — ten
// repetitions, each a 40-tree ranking forest with mtry = d/3 over 180 + 36
// injected columns beside the ℓ2,1 half.
func BenchmarkRStarRegression(b *testing.B) {
	const n, hot, cont = 256, 64, 116
	rng := rand.New(rand.NewSource(73))
	d := hot + cont
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for g := 0; g < hot; g += 8 {
			level := rng.Intn(8)
			row[g+level] = 1
			y[i] += float64((level*(g/8+3))%5) / 4
		}
		for j := hot; j < d; j++ {
			row[j] = rng.NormFloat64()
		}
		y[i] += row[hot] - 0.5*row[hot+1] + 0.1*rng.NormFloat64()
	}
	ds, err := ml.NewDataset(x, n, d, y, ml.Regression, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := &RIFS{}
	testenv.BenchSpeedup(b, func() {
		if _, err := r.RStar(ds, 74); err != nil {
			b.Fatal(err)
		}
	})
}

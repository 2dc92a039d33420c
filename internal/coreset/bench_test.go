package coreset

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

// BenchmarkLeverageIndices measures leverage-score coreset construction —
// Gram build plus n independent ridge solves — at 1 worker vs all cores.
func BenchmarkLeverageIndices(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	n, d := 3000, 12
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	testenv.BenchSpeedup(b, func() {
		if _, err := LeverageIndices(x, n, d, 300, rand.New(rand.NewSource(82))); err != nil {
			b.Fatal(err)
		}
	})
}

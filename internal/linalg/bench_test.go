package linalg

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

func randMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkMul measures the row-blocked parallel matrix product at 1 worker
// vs all cores (shapes like the RIFS covariance path: a few hundred square).
func BenchmarkMul(b *testing.B) {
	a := randMatrix(256, 256, 1)
	c := randMatrix(256, 256, 2)
	out := NewMatrix(256, 256)
	testenv.BenchSpeedup(b, func() { MulInto(out, a, c) })
}

// BenchmarkMulABt measures the transpose-free Gram kernel used by the
// moment-matched injector (Σ = C·Cᵀ).
func BenchmarkMulABt(b *testing.B) {
	c := randMatrix(384, 64, 3)
	testenv.BenchSpeedup(b, func() { MulABt(c, c) })
}

package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/parallel"
)

func TestMulBasics(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := NewMatrix(2, 2)
	c.Data[0] = 99 // MulInto zeroes its output first
	MulInto(c, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if bt := MulABt(a, b); bt.At(0, 1) != 23 || bt.At(1, 0) != 39 {
		t.Fatalf("a·bᵀ = %v, want [17 23 39 53]", bt.Data)
	}
}

// mul returns a·b.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// mulVec returns a·x.
func mulVec(a *Matrix, x []float64) []float64 {
	return mul(a, &Matrix{Rows: len(x), Cols: 1, Data: x}).Data
}

func spdMatrix(rng *rand.Rand, n int) *Matrix {
	// A = B·Bᵀ + n·I is SPD.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := MulABt(b, b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := spdMatrix(rng, 8)
	l, err := CholeskyJittered(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A = L·Lᵀ.
	rec := MulABt(l, l)
	for i := range a.Data {
		if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8 {
			t.Fatalf("LLᵀ differs at %d: %v vs %v", i, rec.Data[i], a.Data[i])
		}
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := mulVec(a, x)
	got := SolveCholesky(l, b)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, -1
	if err := choleskyInto(NewMatrix(2, 2), a); err != ErrNotSPD {
		t.Fatal("expected ErrNotSPD")
	}
}

func TestCholeskyJitteredRecovers(t *testing.T) {
	// Singular PSD matrix: rank 1.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 1, 1, 1}}
	l, err := CholeskyJittered(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.At(0, 0) <= 0 {
		t.Fatal("jittered factor should be valid")
	}
}

func TestSolveSPDMultiRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := spdMatrix(rng, 6)
	x := NewMatrix(6, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b := mul(a, x)
	var s SPDSolver
	got, err := s.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if math.Abs(got.Data[i]-x.Data[i]) > 1e-7 {
			t.Fatalf("Solve[%d] = %v, want %v", i, got.Data[i], x.Data[i])
		}
	}
}

func TestSPDSolverReusedAcrossSizes(t *testing.T) {
	// One solver serves systems of different sizes in turn: its buffers are
	// resized, and no stale entry of a larger system leaks into a smaller.
	rng := rand.New(rand.NewSource(3))
	var s SPDSolver
	for _, n := range []int{7, 3, 7, 5} {
		a := spdMatrix(rng, n)
		x := NewMatrix(n, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		got, err := s.Solve(a, mul(a, x))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != n || got.Cols != 3 {
			t.Fatalf("n=%d: solution is %dx%d", n, got.Rows, got.Cols)
		}
		for i := range x.Data {
			if math.Abs(got.Data[i]-x.Data[i]) > 1e-7 {
				t.Fatalf("n=%d: Solve[%d] = %v, want %v", n, i, got.Data[i], x.Data[i])
			}
		}
	}
}

func TestMVNSamplerMoments(t *testing.T) {
	mu := []float64{1, -2}
	sigma := &Matrix{Rows: 2, Cols: 2, Data: []float64{2, 0.8, 0.8, 1}}
	s, err := NewMVNSampler(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const n = 20000
	sum := []float64{0, 0}
	var c00, c01, c11 float64
	v, z := make([]float64, 2), make([]float64, 2)
	for i := 0; i < n; i++ {
		s.SampleTo(rng, v, z)
		sum[0] += v[0]
		sum[1] += v[1]
		d0, d1 := v[0]-mu[0], v[1]-mu[1]
		c00 += d0 * d0
		c01 += d0 * d1
		c11 += d1 * d1
	}
	m0, m1 := sum[0]/n, sum[1]/n
	if math.Abs(m0-1) > 0.05 || math.Abs(m1+2) > 0.05 {
		t.Fatalf("sample mean = %v, %v", m0, m1)
	}
	if math.Abs(c00/n-2) > 0.1 || math.Abs(c01/n-0.8) > 0.1 || math.Abs(c11/n-1) > 0.1 {
		t.Fatalf("sample cov = %v %v %v", c00/n, c01/n, c11/n)
	}
}

// Property: solving A·x = A·x0 recovers x0 for random SPD A.
func TestSolveRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		a := spdMatrix(rng, n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b := mulVec(a, x0)
		l, err := CholeskyJittered(a, 0)
		if err != nil {
			return false
		}
		x := SolveCholesky(l, b)
		for i := range x0 {
			if math.Abs(x[i]-x0[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	v := []float64{3, 4}
	if got := Norm2(v); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	dst := []float64{7, 9}
	Scale(dst, 0.5)
	if dst[0] != 3.5 || dst[1] != 4.5 {
		t.Fatalf("Scale = %v", dst)
	}
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := CholeskyJittered(NewMatrix(2, 3), 0); err == nil {
		t.Fatal("non-square Cholesky should error")
	}
}

func TestMVNSamplerDimensionMismatch(t *testing.T) {
	if _, err := NewMVNSampler([]float64{1, 2}, NewMatrix(3, 3)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] == 99 {
		t.Fatal("Clone must copy storage")
	}
}

// TestProductsWorkersDeterminism: MulInto and MulABt split their output rows
// into blocks by shape alone and sum each entry in one fixed order, so a
// product large enough to span many blocks is bit-identical at 1 and 8
// workers, and MulABt(a, b) equals MulInto(a, bᵀ) entry for entry up to
// rounding.
func TestProductsWorkersDeterminism(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	a, b := randMatrix(150, 90, 5), randMatrix(90, 120, 6)
	bt := NewMatrix(120, 90)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	var prods, grams [2]*Matrix
	for k, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		prods[k] = mul(a, b)
		grams[k] = MulABt(a, bt)
	}
	if !slices.Equal(prods[0].Data, prods[1].Data) || !slices.Equal(grams[0].Data, grams[1].Data) {
		t.Fatal("a product differs between 1 and 8 workers")
	}
	for i, v := range prods[0].Data {
		if math.Abs(v-grams[0].Data[i]) > 1e-9 {
			t.Fatalf("entry %d: a·b = %v, a·(bᵀ)ᵀ = %v", i, v, grams[0].Data[i])
		}
	}
}

// TestSampleToIsMuPlusLz: a draw is mu + L·z for the factor L of sigma and
// the next NormFloat64 draws z of the caller's stream, written into dst
// whatever it held before.
func TestSampleToIsMuPlusLz(t *testing.T) {
	mu := []float64{1, -2, 0.5}
	sigma := &Matrix{Rows: 3, Cols: 3, Data: []float64{4, 1, 0.5, 1, 3, 0.2, 0.5, 0.2, 2}}
	s, err := NewMVNSampler(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CholeskyJittered(sigma, 0)
	if err != nil {
		t.Fatal(err)
	}
	zs := rand.New(rand.NewSource(8))
	rng := rand.New(rand.NewSource(8))
	dst, z := []float64{9, 9, 9}, make([]float64, 3)
	for draw := 0; draw < 5; draw++ {
		s.SampleTo(rng, dst, z)
		want := append([]float64(nil), mu...)
		zw := []float64{zs.NormFloat64(), zs.NormFloat64(), zs.NormFloat64()}
		for i := range want {
			for k := 0; k <= i; k++ {
				want[i] += l.At(i, k) * zw[k]
			}
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("draw %d: %v, want mu + L·z = %v", draw, dst, want)
		}
	}
}

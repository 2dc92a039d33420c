// Package linalg provides the dense linear-algebra primitives ARDA needs:
// row-major matrices, matrix products, Cholesky factorization and solves,
// regularized least squares, and multivariate-normal sampling for the
// moment-matched random feature injection of RIFS.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/arda-ml/arda/internal/parallel"
)

// kernelBlockRows sizes the row blocks handed to the worker pool so each
// block carries roughly kernelBlockFlops multiply-adds: tiny matrices stay on
// one goroutine (block covers all rows), large ones split. The partition
// depends only on the matrix shape, keeping results worker-count independent.
func kernelBlockRows(rowCost int) int {
	const kernelBlockFlops = 1 << 14
	if rowCost < 1 {
		rowCost = 1
	}
	rows := kernelBlockFlops / rowCost
	if rows < 1 {
		rows = 1
	}
	return rows
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: row %d has %d entries, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a subslice of the backing array.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix. Input rows are scattered into
// output columns concurrently; every input row writes a disjoint stride, so
// the result is independent of the worker count.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	parallel.Blocks(0, m.Rows, kernelBlockRows(m.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j, v := range row {
				out.Data[j*m.Rows+i] = v
			}
		}
	})
	return out
}

// Mul returns the product a·b. Output rows are computed concurrently by row
// blocks; each row's accumulation order is the same as the sequential kernel,
// so results are bit-identical for any worker count.
func Mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes a·b into out (which must be a.Rows×b.Cols), zeroing it
// first — same arithmetic as Mul, without the per-call allocation.
func MulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul dims %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: mul out dims %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	parallel.Blocks(0, a.Rows, kernelBlockRows(a.Cols*b.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// MulABt returns the product a·bᵀ without materializing the transpose:
// out[i][j] = ⟨a.Row(i), b.Row(j)⟩. Output rows are computed concurrently;
// each entry is a single ordered dot product, so results are bit-identical
// for any worker count.
func MulABt(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: mulabt dims %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Rows)
	parallel.Blocks(0, a.Rows, kernelBlockRows(a.Cols*b.Rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			j := 0
			for ; j+4 <= len(orow); j += 4 {
				orow[j], orow[j+1], orow[j+2], orow[j+3] =
					Dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
			}
			for ; j < len(orow); j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// MulVec returns the product m·x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: mulvec dims %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	parallel.Blocks(0, m.Rows, kernelBlockRows(m.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Dot(m.Row(i), x)
		}
	})
	return out
}

// Dot returns the inner product of equal-length vectors. The loop is
// unrolled 4× into a single accumulator — the additions happen in exactly
// the sequential order of the plain loop, so the result is bit-identical;
// the explicit re-slice just lifts the bounds checks out of the body.
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot4 returns the four inner products ⟨a,b0⟩…⟨a,b3⟩ in one pass over a.
// Each product uses its own accumulator updated in plain sequential order,
// so every result is bit-identical to a separate Dot call — but the four
// independent dependency chains hide floating-point add latency, which a
// lone running sum cannot. Gram-style kernels (many dot products sharing one
// left vector) are latency-bound, not bandwidth-bound, making this the
// profitable shape.
func Dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0 = b0[:len(a)]
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	b3 = b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AddScaled adds alpha*src to dst in place.
func AddScaled(dst []float64, alpha float64, src []float64) {
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// Scale multiplies every entry of v by alpha in place.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// ErrNotSPD is returned by Cholesky when the input is not (numerically)
// symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A. Only the lower triangle of A is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := choleskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors a into the caller-provided l (n×n). Only entries on
// or below l's diagonal are written, and the algorithm only reads entries it
// wrote during this call, so l may hold garbage from a previous solve — no
// clearing needed.
func choleskyInto(l, a *Matrix) error {
	n := a.Rows
	// Row-slice addressing with the same accumulation order as the textbook
	// At/Set form (sequential k), so results are bit-identical to it — this
	// sits on the IRLS hot path, where indexing overhead dominated.
	for j := 0; j < n; j++ {
		lj := l.Row(j)[:j+1]
		d := a.At(j, j)
		for _, v := range lj[:j] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		lj[j] = d
		acol := a.Data[j:]
		// The column update dots every lower row against lj. Four rows per
		// pass — each output with its own accumulator in plain sequential
		// order, so each is bit-identical to the one-row form — hide the
		// dependent-subtract latency the lone running sum serializes on.
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := l.Row(i)[:j+1]
			r1 := l.Row(i + 1)[:j+1]
			r2 := l.Row(i + 2)[:j+1]
			r3 := l.Row(i + 3)[:j+1]
			s0 := acol[i*n]
			s1 := acol[(i+1)*n]
			s2 := acol[(i+2)*n]
			s3 := acol[(i+3)*n]
			for k, v := range lj[:j] {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			r0[j] = s0 / d
			r1[j] = s1 / d
			r2[j] = s2 / d
			r3[j] = s3 / d
		}
		for ; i < n; i++ {
			li := l.Row(i)[:j+1]
			s := acol[i*n]
			for k, v := range li[:j] {
				s -= v * lj[k]
			}
			li[j] = s / d
		}
	}
	return nil
}

// CholeskyJittered computes a Cholesky factor of a + jitter·I, doubling the
// jitter (starting from start, or a scale-based default if start <= 0) until
// factorization succeeds or the jitter exceeds the matrix scale by a large
// factor.
func CholeskyJittered(a *Matrix, start float64) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Rows)
	if err := choleskyJitteredInto(l, a.Clone(), a, start); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyJitteredInto is CholeskyJittered with caller-provided buffers:
// l receives the factor, work must already hold a copy of a (it is consumed
// as jitter scratch). Same jitter sequence, same arithmetic.
func choleskyJitteredInto(l, work, a *Matrix, start float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	scale := 0.0
	for i := 0; i < a.Rows; i++ {
		if v := math.Abs(a.At(i, i)); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	jitter := start
	if jitter <= 0 {
		jitter = 1e-10 * scale
	}
	for iter := 0; iter < 60; iter++ {
		err := choleskyInto(l, work)
		if err == nil {
			return nil
		}
		for i := 0; i < work.Rows; i++ {
			work.Set(i, i, a.At(i, i)+jitter)
		}
		jitter *= 4
		if jitter > 1e6*scale {
			break
		}
	}
	return ErrNotSPD
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A, by forward
// then backward substitution.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	solveCholeskyInto(l, b, make([]float64, l.Rows), x)
	return x
}

// solveCholeskyInto is SolveCholesky with caller-provided scratch: y holds
// the forward-substitution intermediate, x receives the solution.
func solveCholeskyInto(l *Matrix, b, y, x []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k, v := range row[:i] {
			s -= v * y[k]
		}
		y[i] = s / row[i]
	}
	data := l.Data
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		// Walk column i below the diagonal (stride n), same order as the
		// At form.
		for k := i + 1; k < n; k++ {
			s -= data[k*n+i] * x[k]
		}
		x[i] = s / data[i*n+i]
	}
}

// SolveSPD solves A·X = B for symmetric positive-definite A (jittered if
// needed), where B has one column per solve.
func SolveSPD(a, b *Matrix) (*Matrix, error) {
	var s SPDSolver
	out, err := s.Solve(a, b)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SPDSolver solves a sequence of same-shape SPD systems (e.g. successive
// IRLS iterations) reusing its factorization and solution buffers, so only
// the first Solve allocates. Arithmetic is identical to SolveSPD. The
// returned matrix is owned by the solver and valid until the next Solve;
// clone it to retain.
type SPDSolver struct {
	work, l, out *Matrix
	col, y, x    []float64
}

// reuseMatrix returns m resized to r×c, reallocating only on growth. The
// contents are unspecified; callers must fully overwrite what they read.
func reuseMatrix(m *Matrix, r, c int) *Matrix {
	if m == nil || cap(m.Data) < r*c {
		return NewMatrix(r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

func reuseVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// Solve solves A·X = B like SolveSPD, into the solver's reused buffers.
func (s *SPDSolver) Solve(a, b *Matrix) (*Matrix, error) {
	n := a.Rows
	s.work = reuseMatrix(s.work, n, n)
	copy(s.work.Data, a.Data)
	s.l = reuseMatrix(s.l, n, n)
	if err := choleskyJitteredInto(s.l, s.work, a, 0); err != nil {
		return nil, err
	}
	s.out = reuseMatrix(s.out, n, b.Cols)
	s.col = reuseVec(s.col, n)
	s.y = reuseVec(s.y, n)
	s.x = reuseVec(s.x, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			s.col[i] = b.At(i, j)
		}
		solveCholeskyInto(s.l, s.col, s.y, s.x)
		for i := 0; i < n; i++ {
			s.out.Set(i, j, s.x[i])
		}
	}
	return s.out, nil
}

// RidgeSolve solves the regularized least squares problem
// min_w ‖X·w − y‖² + lambda‖w‖² via the normal equations
// (XᵀX + lambda·I)w = Xᵀy. X is n×d with d expected modest (use dual or
// sketching for wide problems).
func RidgeSolve(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	d := x.Cols
	xtx := NewMatrix(d, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			out := xtx.Row(a)
			for b := 0; b < d; b++ {
				out[b] += va * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		xtx.Data[a*d+a] += lambda
	}
	xty := make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		AddScaled(xty, y[i], row)
	}
	l, err := CholeskyJittered(xtx, 0)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, xty), nil
}

// MVNSampler draws samples from N(mu, sigma) using a jittered Cholesky factor
// of sigma.
type MVNSampler struct {
	mu []float64
	l  *Matrix
}

// NewMVNSampler prepares a sampler for N(mu, sigma). sigma must be square
// with dimension len(mu); a small jitter is added if it is not strictly
// positive definite.
func NewMVNSampler(mu []float64, sigma *Matrix) (*MVNSampler, error) {
	if sigma.Rows != len(mu) || sigma.Cols != len(mu) {
		return nil, fmt.Errorf("linalg: MVN dims mu=%d sigma=%dx%d", len(mu), sigma.Rows, sigma.Cols)
	}
	l, err := CholeskyJittered(sigma, 0)
	if err != nil {
		return nil, err
	}
	return &MVNSampler{mu: mu, l: l}, nil
}

// Sample draws one vector from the distribution.
func (s *MVNSampler) Sample(rng *rand.Rand) []float64 {
	n := len(s.mu)
	out := make([]float64, n)
	s.SampleTo(rng, out, make([]float64, n))
	return out
}

// SampleTo draws one vector into dst using z as standard-normal scratch
// (both of the sampler's dimension). It consumes exactly the NormFloat64
// stream Sample would and writes the same values, so callers can reuse
// buffers across draws without changing a single output bit.
func (s *MVNSampler) SampleTo(rng *rand.Rand, dst, z []float64) {
	n := len(s.mu)
	for i := 0; i < n; i++ {
		z[i] = rng.NormFloat64()
	}
	copy(dst, s.mu)
	for i := 0; i < n; i++ {
		row := s.l.Row(i)
		acc := dst[i]
		for k := 0; k <= i; k++ {
			acc += row[k] * z[k]
		}
		dst[i] = acc
	}
}

// Mean returns the column-wise mean of m as a vector of length Cols.
func Mean(m *Matrix) []float64 {
	mu := make([]float64, m.Cols)
	if m.Rows == 0 {
		return mu
	}
	for i := 0; i < m.Rows; i++ {
		AddScaled(mu, 1, m.Row(i))
	}
	Scale(mu, 1/float64(m.Rows))
	return mu
}

// Package coreset implements ARDA's row-reduction strategies (§3.1 of the
// paper): uniform sampling, stratified sampling (per-label uniform), and
// OSNAP/count-sketch subspace embeddings. Sampling strategies operate on row
// indices and therefore can run before joins; sketching takes sparse linear
// combinations of rows and must run after joins (it is applied per label
// stratum for classification, analogous to stratified sampling).
package coreset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/arda-ml/arda/internal/ml"
)

// Strategy identifies a coreset construction.
type Strategy int

const (
	// Uniform draws rows uniformly without replacement.
	Uniform Strategy = iota
	// Stratified draws uniformly within each class label (classification
	// only; falls back to Uniform for regression).
	Stratified
	// Sketch applies an OSNAP subspace embedding after the join.
	Sketch
	// Leverage draws rows proportionally to their ridge leverage scores,
	// preferentially keeping influential/outlying rows (a specialized
	// construction in the sense of §3.1's coreset survey).
	Leverage
)

// String returns the lowercase strategy name.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Stratified:
		return "stratified"
	case Sketch:
		return "sketch"
	case Leverage:
		return "leverage"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultSize is the paper-style heuristic for an automatic coreset size:
// min(n, max(256, n/10)) rows.
func DefaultSize(n int) int {
	size := n / 10
	if size < 256 {
		size = 256
	}
	if size > n {
		size = n
	}
	return size
}

// UniformIndices draws size distinct row indices uniformly at random,
// returned in random order. If size >= n, all indices are returned.
func UniformIndices(n, size int, rng *rand.Rand) []int {
	if size >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)[:size]
}

// StratifiedIndices draws a per-label uniform sample of about size rows,
// allocating slots proportionally to label frequency but guaranteeing at
// least one row per observed label.
func StratifiedIndices(labels []int, numClasses, size int, rng *rand.Rand) []int {
	n := len(labels)
	if size >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	byClass := make([][]int, numClasses)
	for i, k := range labels {
		if k >= 0 && k < numClasses {
			byClass[k] = append(byClass[k], i)
		}
	}
	var out []int
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		want := int(math.Round(float64(size) * float64(len(idx)) / float64(n)))
		if want < 1 {
			want = 1
		}
		if want > len(idx) {
			want = len(idx)
		}
		perm := rng.Perm(len(idx))
		for _, p := range perm[:want] {
			out = append(out, idx[p])
		}
	}
	return out
}

// OSNAP is a sparse oblivious subspace embedding Π ∈ R^{ℓ×n} in which each
// input row is hashed into s buckets with ±1/√s signs (Definition 2 of the
// paper; s = ⌈log₂ n⌉ repetitions).
type OSNAP struct {
	// L is the embedding dimension (number of output rows).
	L int
	// buckets[i] and signs[i] hold the s (bucket, sign) pairs for input row i.
	buckets [][]int
	signs   [][]float64
	scale   float64
}

// NewOSNAP builds an OSNAP embedding for n input rows into l output rows.
func NewOSNAP(n, l int, rng *rand.Rand) *OSNAP {
	if l < 1 {
		l = 1
	}
	s := int(math.Ceil(math.Log2(float64(n + 1))))
	if s < 1 {
		s = 1
	}
	o := &OSNAP{
		L:       l,
		buckets: make([][]int, n),
		signs:   make([][]float64, n),
		scale:   1 / math.Sqrt(float64(s)),
	}
	for i := 0; i < n; i++ {
		o.buckets[i] = make([]int, s)
		o.signs[i] = make([]float64, s)
		for r := 0; r < s; r++ {
			o.buckets[i][r] = rng.Intn(l)
			if rng.Intn(2) == 0 {
				o.signs[i][r] = o.scale
			} else {
				o.signs[i][r] = -o.scale
			}
		}
	}
	return o
}

// Apply computes Π·X for a row-major n×d matrix, returning an ℓ×d matrix.
func (o *OSNAP) Apply(x []float64, n, d int) []float64 {
	out := make([]float64, o.L*d)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for r, b := range o.buckets[i] {
			sign := o.signs[i][r]
			orow := out[b*d : (b+1)*d]
			for j, v := range row {
				orow[j] += sign * v
			}
		}
	}
	return out
}

// ApplyVec computes Π·y for a length-n vector.
func (o *OSNAP) ApplyVec(y []float64) []float64 {
	out := make([]float64, o.L)
	for i, v := range y {
		for r, b := range o.buckets[i] {
			out[b] += o.signs[i][r] * v
		}
	}
	return out
}

// SketchDataset applies an OSNAP embedding to a dataset, producing about size
// sketched rows. For regression the target is sketched along with the
// features. For classification, rows are sketched independently within each
// label stratum (mixing rows across labels would destroy the labels), and
// each sketched row keeps its stratum's label.
func SketchDataset(ds *ml.Dataset, size int, rng *rand.Rand) *ml.Dataset {
	if size <= 0 {
		size = DefaultSize(ds.N)
	}
	if size >= ds.N {
		return ds.Subset(allIndices(ds.N))
	}
	if ds.Task == ml.Regression {
		o := NewOSNAP(ds.N, size, rng)
		x := o.Apply(ds.X, ds.N, ds.D)
		y := o.ApplyVec(ds.Y)
		out, err := ml.NewDataset(x, o.L, ds.D, y, ds.Task, 0)
		if err != nil {
			panic(err)
		}
		return out
	}
	// Per-stratum sketching.
	byClass := make([][]int, ds.Classes)
	for i := 0; i < ds.N; i++ {
		byClass[ds.Label(i)] = append(byClass[ds.Label(i)], i)
	}
	var xOut []float64
	var yOut []float64
	rows := 0
	for k, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		want := int(math.Round(float64(size) * float64(len(idx)) / float64(ds.N)))
		if want < 1 {
			want = 1
		}
		if want >= len(idx) {
			// Stratum already small: keep its rows as-is.
			for _, i := range idx {
				xOut = append(xOut, ds.Row(i)...)
				yOut = append(yOut, float64(k))
				rows++
			}
			continue
		}
		sub := ds.Subset(idx)
		o := NewOSNAP(sub.N, want, rng)
		sx := o.Apply(sub.X, sub.N, sub.D)
		xOut = append(xOut, sx...)
		for r := 0; r < o.L; r++ {
			yOut = append(yOut, float64(k))
		}
		rows += o.L
	}
	out, err := ml.NewDataset(xOut, rows, ds.D, yOut, ds.Task, ds.Classes)
	if err != nil {
		panic(err)
	}
	return out
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Package ml implements the learning models ARDA uses, from scratch on the
// standard library: CART decision trees and random forests (classification
// and regression, with impurity-based feature importances), the linear SVM,
// and the ℓ2,1-norm sparse-regression solver that powers half of RIFS's
// ranking ensemble.
package ml

import (
	"fmt"
	"math"

	"github.com/arda-ml/arda/internal/parallel"
)

// Task distinguishes regression from classification datasets.
type Task int

const (
	// Regression predicts a continuous target.
	Regression Task = iota
	// Classification predicts one of Classes integer labels.
	Classification
)

// String returns the lowercase task name.
func (t Task) String() string {
	if t == Classification {
		return "classification"
	}
	return "regression"
}

// Dataset is a dense supervised learning problem: an N×D row-major design
// matrix X and a target vector Y. For classification, Y holds integer class
// codes in [0, Classes).
//
// A Dataset may also be a column-subset *view* over another dataset's
// storage (see View): X then holds the full backing matrix, stride is its
// row width, and cols maps view column j to backing column cols[j]. Views
// cost O(1) to create and read through At/RowTo without copying; Subset and
// SelectFeatures materialize dense storage, so models — which train on
// Subset outputs — never pay per-element indirection in their hot loops.
type Dataset struct {
	X       []float64
	N, D    int
	Y       []float64
	Task    Task
	Classes int

	// cols is nil for dense datasets; for views it maps view columns to
	// backing columns, and stride is the backing row width.
	cols   []int
	stride int

	// splits is an optionally attached prebuilt split view (AttachSplits):
	// forest fitting reads the dataset's columns from it instead of
	// gathering and presorting again. Never propagated by View/Subset —
	// attachment is always explicit.
	splits *splitSet
}

// NewDataset wraps the given storage, validating shape consistency.
func NewDataset(x []float64, n, d int, y []float64, task Task, classes int) (*Dataset, error) {
	if len(x) != n*d {
		return nil, fmt.Errorf("ml: X has %d entries, want %d×%d=%d", len(x), n, d, n*d)
	}
	if len(y) != n {
		return nil, fmt.Errorf("ml: Y has %d entries, want %d", len(y), n)
	}
	if task == Classification && classes < 2 {
		return nil, fmt.Errorf("ml: classification dataset needs >= 2 classes, got %d", classes)
	}
	return &Dataset{X: x, N: n, D: d, Y: y, Task: task, Classes: classes}, nil
}

// IsView reports whether the dataset reads through column indirection.
func (ds *Dataset) IsView() bool { return ds.cols != nil }

// xIndex returns the backing-array index of entry (i, j).
func (ds *Dataset) xIndex(i, j int) int {
	if ds.cols == nil {
		return i*ds.D + j
	}
	return i*ds.stride + ds.cols[j]
}

// Row returns sample i's feature vector. For dense datasets it is a subslice
// of the backing array; for views it gathers into a fresh slice — hot loops
// should use RowTo with a reused scratch buffer instead.
func (ds *Dataset) Row(i int) []float64 {
	if ds.cols == nil {
		return ds.X[i*ds.D : (i+1)*ds.D]
	}
	return ds.RowTo(i, nil)
}

// RowTo gathers sample i's feature vector into dst (allocated when nil or too
// short) and returns it. It is the index-indirection row accessor for views;
// on dense datasets it copies.
func (ds *Dataset) RowTo(i int, dst []float64) []float64 {
	if cap(dst) < ds.D {
		dst = make([]float64, ds.D)
	}
	dst = dst[:ds.D]
	if ds.cols == nil {
		copy(dst, ds.X[i*ds.D:(i+1)*ds.D])
		return dst
	}
	row := ds.X[i*ds.stride : (i+1)*ds.stride]
	for j, c := range ds.cols {
		dst[j] = row[c]
	}
	return dst
}

// At returns feature j of sample i.
func (ds *Dataset) At(i, j int) float64 {
	if ds.cols == nil {
		return ds.X[i*ds.D+j]
	}
	return ds.X[i*ds.stride+ds.cols[j]]
}

// Label returns sample i's class code (classification only).
func (ds *Dataset) Label(i int) int { return int(ds.Y[i]) }

// View returns an O(1) column-subset view sharing this dataset's storage:
// no matrix is materialized and writes to the backing dataset show through.
// Composing views composes the index maps, so a view of a view still does a
// single indirection per access.
func (ds *Dataset) View(cols []int) *Dataset {
	mapped := make([]int, len(cols))
	stride := ds.D
	if ds.cols == nil {
		copy(mapped, cols)
	} else {
		stride = ds.stride
		for j, c := range cols {
			mapped[j] = ds.cols[c]
		}
	}
	return &Dataset{
		X: ds.X, N: ds.N, D: len(cols), Y: ds.Y,
		Task: ds.Task, Classes: ds.Classes,
		cols: mapped, stride: stride,
	}
}

// Subset returns a dense dataset over the given sample indices; feature
// storage is copied (gathered through the column indirection for views).
func (ds *Dataset) Subset(idx []int) *Dataset {
	x := make([]float64, len(idx)*ds.D)
	y := make([]float64, len(idx))
	if ds.cols == nil {
		for r, i := range idx {
			copy(x[r*ds.D:(r+1)*ds.D], ds.X[i*ds.D:(i+1)*ds.D])
			y[r] = ds.Y[i]
		}
	} else {
		for r, i := range idx {
			ds.RowTo(i, x[r*ds.D:(r+1)*ds.D])
			y[r] = ds.Y[i]
		}
	}
	return &Dataset{X: x, N: len(idx), D: ds.D, Y: y, Task: ds.Task, Classes: ds.Classes}
}

// GatherSubsetInto fills x (row-major, len(rows)×len(cols)) and y with the
// given samples restricted to cols, without allocating. It is the pooled-
// scratch gather under copy-free subset scoring: callers own the buffers and
// reuse them across evaluations.
func (ds *Dataset) GatherSubsetInto(rows, cols []int, x, y []float64) {
	d := len(cols)
	if ds.cols == nil {
		for r, i := range rows {
			src := ds.X[i*ds.D : (i+1)*ds.D]
			dst := x[r*d : (r+1)*d]
			for jj, j := range cols {
				dst[jj] = src[j]
			}
			y[r] = ds.Y[i]
		}
		return
	}
	for r, i := range rows {
		src := ds.X[i*ds.stride : (i+1)*ds.stride]
		dst := x[r*d : (r+1)*d]
		for jj, j := range cols {
			dst[jj] = src[ds.cols[j]]
		}
		y[r] = ds.Y[i]
	}
}

// SelectFeatures returns a dense dataset restricted to the given feature
// columns. Use View for an O(1) non-copying subset.
func (ds *Dataset) SelectFeatures(cols []int) *Dataset {
	x := make([]float64, ds.N*len(cols))
	for i := 0; i < ds.N; i++ {
		for jj, j := range cols {
			x[i*len(cols)+jj] = ds.X[ds.xIndex(i, j)]
		}
	}
	return &Dataset{X: x, N: ds.N, D: len(cols), Y: ds.Y, Task: ds.Task, Classes: ds.Classes}
}

// Materialize returns a dense copy of a view (itself when already dense).
func (ds *Dataset) Materialize() *Dataset {
	if ds.cols == nil {
		return ds
	}
	cols := make([]int, ds.D)
	for j := range cols {
		cols[j] = j
	}
	return ds.SelectFeatures(cols)
}

// CleanNaNs replaces NaN feature entries with the per-column mean of the
// non-NaN entries (0 if a column is entirely NaN), in place. Models in this
// package require NaN-free inputs. On a view the fills write through to the
// backing storage of the selected columns.
func (ds *Dataset) CleanNaNs() {
	for j := 0; j < ds.D; j++ {
		sum, cnt := 0.0, 0
		for i := 0; i < ds.N; i++ {
			v := ds.X[ds.xIndex(i, j)]
			if !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		fill := 0.0
		if cnt > 0 {
			fill = sum / float64(cnt)
		}
		for i := 0; i < ds.N; i++ {
			if k := ds.xIndex(i, j); math.IsNaN(ds.X[k]) {
				ds.X[k] = fill
			}
		}
	}
}

// Model is a fitted predictor. For classification models Predict returns the
// predicted class code; for regression, the predicted value. Predict must be
// safe for concurrent calls — PredictAll makes them — which every model of
// this package is: a fitted model is only read, and per-call scratch is local.
type Model interface {
	Predict(x []float64) float64
}

// predictBlock is PredictAll's rows per pool item: a few hundred forest
// predictions, far above the pool's per-item overhead.
const predictBlock = 256

// PredictAll applies the model to every row of ds, in row blocks on the
// shared worker pool. Each prediction is written at its row's index, so the
// result is the same for any worker count. A dataset of one block — every
// holdout of a coreset, scored hundreds of times per run — never touches the
// pool.
func PredictAll(m Model, ds *Dataset) []float64 {
	out := make([]float64, ds.N)
	if ds.N <= predictBlock {
		predictRows(m, ds, out, 0, ds.N)
	} else {
		parallel.Blocks(0, ds.N, predictBlock, func(lo, hi int) { predictRows(m, ds, out, lo, hi) })
	}
	return out
}

// predictRows fills out[lo:hi] with the model's predictions for those rows.
func predictRows(m Model, ds *Dataset, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = m.Predict(ds.Row(i))
	}
}

// Standardization holds per-feature location/scale for z-scoring.
type Standardization struct {
	Mean, Scale []float64
}

// FitStandardization computes per-column mean and standard deviation of ds
// (scale 1 for constant columns).
func FitStandardization(ds *Dataset) *Standardization {
	s := &Standardization{Mean: make([]float64, ds.D), Scale: make([]float64, ds.D)}
	for j := 0; j < ds.D; j++ {
		sum := 0.0
		for i := 0; i < ds.N; i++ {
			sum += ds.At(i, j)
		}
		mu := sum / float64(ds.N)
		ss := 0.0
		for i := 0; i < ds.N; i++ {
			d := ds.At(i, j) - mu
			ss += float64(d * d)
		}
		sd := math.Sqrt(ss / float64(ds.N))
		if sd < 1e-12 {
			sd = 1
		}
		s.Mean[j] = mu
		s.Scale[j] = sd
	}
	return s
}

// Apply returns a standardized copy of ds.
func (s *Standardization) Apply(ds *Dataset) *Dataset {
	x := make([]float64, len(ds.X))
	for i := 0; i < ds.N; i++ {
		for j := 0; j < ds.D; j++ {
			x[i*ds.D+j] = (ds.At(i, j) - s.Mean[j]) / s.Scale[j]
		}
	}
	return &Dataset{X: x, N: ds.N, D: ds.D, Y: ds.Y, Task: ds.Task, Classes: ds.Classes}
}

// ApplyVec standardizes a single feature vector into a new slice.
func (s *Standardization) ApplyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Scale[j]
	}
	return out
}

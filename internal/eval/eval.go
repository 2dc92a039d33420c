// Package eval provides model evaluation utilities: classification and
// regression metrics, stratified train/holdout splitting, and k-fold cross
// validation over ml.Dataset.
package eval

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// Accuracy returns the fraction of equal entries in pred and truth.
func Accuracy(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	hits := 0
	for i, p := range pred {
		if int(p) == int(truth[i]) {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// MacroF1 returns the unweighted mean per-class F1 score.
func MacroF1(pred, truth []float64, classes int) float64 {
	if classes < 2 || len(pred) == 0 {
		return 0
	}
	tp := make([]float64, classes)
	fp := make([]float64, classes)
	fn := make([]float64, classes)
	for i, p := range pred {
		pk, tk := int(p), int(truth[i])
		if pk == tk {
			tp[pk]++
		} else {
			if pk >= 0 && pk < classes {
				fp[pk]++
			}
			if tk >= 0 && tk < classes {
				fn[tk]++
			}
		}
	}
	sum := 0.0
	for k := 0; k < classes; k++ {
		var f1 float64
		den := 2*tp[k] + fp[k] + fn[k]
		if den > 0 {
			f1 = 2 * tp[k] / den
		}
		sum += f1
	}
	return sum / float64(classes)
}

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range pred {
		s += math.Abs(p - truth[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root mean squared error.
func RMSE(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range pred {
		d := p - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// R2 returns the coefficient of determination.
func R2(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	mean := 0.0
	for _, t := range truth {
		mean += t
	}
	mean /= float64(len(truth))
	ssRes, ssTot := 0.0, 0.0
	for i, p := range pred {
		d := p - truth[i]
		ssRes += d * d
		t := truth[i] - mean
		ssTot += t * t
	}
	if ssTot <= 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Score returns the task's headline score for predictions, higher is
// better: accuracy for classification, R² clipped at 0 for regression.
func Score(task ml.Task, classes int, pred, truth []float64) float64 {
	if task == ml.Classification {
		return Accuracy(pred, truth)
	}
	r2 := R2(pred, truth)
	if r2 < 0 {
		return 0
	}
	return r2
}

// Split holds train/holdout sample indices.
type Split struct {
	Train, Test []int
}

// TrainTestSplit returns a random split with the given test fraction,
// stratified by class for classification datasets so every label appears in
// both sides when possible.
func TrainTestSplit(ds *ml.Dataset, testFrac float64, seed int64) Split {
	rng := rand.New(rand.NewSource(seed))
	if testFrac <= 0 || testFrac >= 1 {
		testFrac = 0.25
	}
	var sp Split
	if ds.Task == ml.Classification {
		byClass := make([][]int, ds.Classes)
		for i := 0; i < ds.N; i++ {
			k := ds.Label(i)
			byClass[k] = append(byClass[k], i)
		}
		for _, idx := range byClass {
			rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			nTest := int(math.Round(float64(len(idx)) * testFrac))
			if nTest == 0 && len(idx) > 1 {
				nTest = 1
			}
			sp.Test = append(sp.Test, idx[:nTest]...)
			sp.Train = append(sp.Train, idx[nTest:]...)
		}
	} else {
		idx := rng.Perm(ds.N)
		nTest := int(math.Round(float64(ds.N) * testFrac))
		if nTest == 0 && ds.N > 1 {
			nTest = 1
		}
		sp.Test = append(sp.Test, idx[:nTest]...)
		sp.Train = append(sp.Train, idx[nTest:]...)
	}
	sort.Ints(sp.Train)
	sort.Ints(sp.Test)
	return sp
}

// KFold returns k cross-validation splits (stratified for classification).
func KFold(ds *ml.Dataset, k int, seed int64) []Split {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	folds := make([][]int, k)
	assign := func(idx []int) {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for i, v := range idx {
			folds[i%k] = append(folds[i%k], v)
		}
	}
	if ds.Task == ml.Classification {
		byClass := make([][]int, ds.Classes)
		for i := 0; i < ds.N; i++ {
			byClass[ds.Label(i)] = append(byClass[ds.Label(i)], i)
		}
		for _, idx := range byClass {
			assign(idx)
		}
	} else {
		idx := make([]int, ds.N)
		for i := range idx {
			idx[i] = i
		}
		assign(idx)
	}
	splits := make([]Split, k)
	for f := 0; f < k; f++ {
		var sp Split
		for g := 0; g < k; g++ {
			if g == f {
				sp.Test = append(sp.Test, folds[g]...)
			} else {
				sp.Train = append(sp.Train, folds[g]...)
			}
		}
		sort.Ints(sp.Train)
		sort.Ints(sp.Test)
		splits[f] = sp
	}
	return splits
}

// Fitter trains a model on a dataset; it is the pluggable estimator
// interface used by feature-selection wrappers and the final ARDA estimate.
type Fitter func(ds *ml.Dataset) ml.Model

// HoldoutScore trains on sp.Train and returns the task score on sp.Test.
func HoldoutScore(ds *ml.Dataset, sp Split, fit Fitter) float64 {
	train := ds.Subset(sp.Train)
	test := ds.Subset(sp.Test)
	m := fit(train)
	pred := ml.PredictAll(m, test)
	return Score(ds.Task, ds.Classes, pred, test.Y)
}

// subsetScratch pools the gather buffers SubsetEvaluator fills on every
// score, so repeated subset evaluations (the RIFS threshold sweep and the
// wrapper searches score hundreds of feature subsets over the same dataset)
// stop allocating a fresh design matrix each time. Buffers are fully
// overwritten before use, and the fitted model is discarded before the
// buffers return to the pool, so reuse never leaks state between evaluations.
var subsetScratch = sync.Pool{New: func() any { return new(subsetBufs) }}

// subsetBufs is one reusable gather buffer.
type subsetBufs struct {
	x []float64
}

// SubsetEvaluator scores many feature subsets of one dataset on a fixed
// holdout split with the run's estimator — the one subset-scoring path of
// every wrapper search, RIFS's threshold sweep included. The constructor
// gathers the base columns once into a compact train+test design matrix
// (held for the evaluator's lifetime); ScoreAt then sub-gathers each
// candidate subset from that matrix instead of walking the full dataset's
// (possibly view-indirected) rows again. Scores are bit-identical to
// HoldoutScore(ds.SelectFeatures(cols), sp, fit): both gather the same cell
// values into the same row-major layout before fitting.
type SubsetEvaluator struct {
	task     ml.Task
	classes  int
	fit      Fitter
	nTr, nTe int
	d        int       // number of base columns
	x        []float64 // base design, train rows then test rows, stride d
	y        []float64 // targets, train then test

	// scoreDur, when attached, observes per-subset scoring latency (the
	// whole fit and predict). Observability only; nil costs one branch per
	// score.
	scoreDur *obs.Histogram
}

// AttachHistogram wires a latency histogram into subsequent scoring calls
// (nil detaches). Attach before handing the evaluator to concurrent scorers.
func (e *SubsetEvaluator) AttachHistogram(h *obs.Histogram) { e.scoreDur = h }

// NewSubsetEvaluator gathers the base feature columns of ds over sp once.
// base must be ascending; candidate subsets passed to ScoreAt address its
// positions.
func NewSubsetEvaluator(ds *ml.Dataset, sp Split, fit Fitter, base []int) *SubsetEvaluator {
	d := len(base)
	nTr, nTe := len(sp.Train), len(sp.Test)
	e := &SubsetEvaluator{
		task:    ds.Task,
		classes: ds.Classes,
		fit:     fit,
		nTr:     nTr,
		nTe:     nTe,
		d:       d,
		x:       make([]float64, (nTr+nTe)*d),
		y:       make([]float64, nTr+nTe),
	}
	ds.GatherSubsetInto(sp.Train, base, e.x[:nTr*d], e.y[:nTr])
	ds.GatherSubsetInto(sp.Test, base, e.x[nTr*d:], e.y[nTr:])
	return e
}

// ScoreAt trains on the train side restricted to the base-column positions
// pos — gathered in the order given, so pos need not be ascending — and
// returns the holdout task score (-Inf for an empty subset). Gathers go into
// the shared pooled scratch, so concurrent calls are safe and
// allocation-light.
func (e *SubsetEvaluator) ScoreAt(pos []int) float64 {
	k := len(pos)
	if k == 0 {
		return math.Inf(-1)
	}
	if e.scoreDur != nil {
		defer e.scoreDur.ObserveSince(time.Now())
	}
	n := e.nTr + e.nTe
	sb := subsetScratch.Get().(*subsetBufs)
	defer subsetScratch.Put(sb)
	if need := n * k; cap(sb.x) < need {
		sb.x = make([]float64, need)
	}
	x := sb.x[: n*k : n*k]
	for i := 0; i < n; i++ {
		row := e.x[i*e.d : (i+1)*e.d]
		out := x[i*k : (i+1)*k]
		for c, p := range pos {
			out[c] = row[p]
		}
	}
	trainY, testY := e.y[:e.nTr], e.y[e.nTr:]
	train := &ml.Dataset{X: x[:e.nTr*k], N: e.nTr, D: k, Y: trainY, Task: e.task, Classes: e.classes}
	test := &ml.Dataset{X: x[e.nTr*k:], N: e.nTe, D: k, Y: testY, Task: e.task, Classes: e.classes}
	m := e.fit(train)
	pred := ml.PredictAll(m, test)
	return Score(e.task, e.classes, pred, testY)
}

// HoldoutError trains on sp.Train and returns the MAE on sp.Test (regression
// reporting metric in the paper's Table 1).
func HoldoutError(ds *ml.Dataset, sp Split, fit Fitter) float64 {
	train := ds.Subset(sp.Train)
	test := ds.Subset(sp.Test)
	m := fit(train)
	pred := ml.PredictAll(m, test)
	return MAE(pred, test.Y)
}

// CrossValScore returns the mean task score across k folds.
func CrossValScore(ds *ml.Dataset, k int, seed int64, fit Fitter) float64 {
	splits := KFold(ds, k, seed)
	s := 0.0
	for _, sp := range splits {
		s += HoldoutScore(ds, sp, fit)
	}
	return s / float64(len(splits))
}

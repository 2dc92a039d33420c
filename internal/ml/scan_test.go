package ml

import (
	"math"
	"testing"
)

// TestScanSplitsAllTied: a fully tied column has no admissible boundary, so
// both scans must report no split (gain stays -Inf). Callers normally skip
// constant columns before scanning; this pins the scan's own behavior.
func TestScanSplitsAllTied(t *testing.T) {
	vals := []float64{3, 3, 3, 3, 3, 3}
	labels := []int32{0, 1, 0, 1, 0, 1}
	lcnt, rcnt := make([]float64, 2), make([]float64, 2)
	if _, gain := scanSplitsClass(vals, labels, ones(6), lcnt, rcnt, 0.5, 1); !math.IsInf(gain, -1) {
		t.Fatalf("class scan on tied column: gain %v, want -Inf", gain)
	}
	ys := []float64{0, 1, 0, 1, 0, 1}
	if _, gain := scanSplitsReg(vals, ys, ones(6), 0.25, 1); !math.IsInf(gain, -1) {
		t.Fatalf("reg scan on tied column: gain %v, want -Inf", gain)
	}
}

// ones is n unit weights: the scan input of n samples that are n units.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// expand repeats each entry of a weighted scan sequence weights[i] times.
func expand[T any](xs []T, weights []float64) []T {
	var out []T
	for i, x := range xs {
		for k := 0; k < int(weights[i]); k++ {
			out = append(out, x)
		}
	}
	return out
}

// TestScanSplitsWeighted: a weighted sequence scans to the threshold and
// gain of its expanded sequence — bit-equal for classification, whose counts
// are exact integers, and within rounding for regression — and minLeaf counts
// samples, not units: a weight-3 unit at an edge is a leaf of three.
func TestScanSplitsWeighted(t *testing.T) {
	vals := []float64{1, 2, 2, 3, 4, 5, 6}
	labels := []int32{1, 0, 2, 0, 1, 1, 2}
	ys := []float64{4, -1, 0.5, 2, 7, 6.5, 1}
	weights := []float64{3, 1, 2, 1, 4, 1, 2}
	ev, el, ey := expand(vals, weights), expand(labels, weights), expand(ys, weights)
	lcnt, rcnt := make([]float64, 3), make([]float64, 3)
	for minLeaf := 1; minLeaf <= 7; minLeaf++ {
		wantThr, wantGain := scanSplitsClass(ev, el, ones(len(ev)), lcnt, rcnt, 0.6, minLeaf)
		thr, gain := scanSplitsClass(vals, labels, weights, lcnt, rcnt, 0.6, minLeaf)
		if thr != wantThr || gain != wantGain {
			t.Errorf("class minLeaf=%d: weighted (%v, %v), expanded (%v, %v)", minLeaf, thr, gain, wantThr, wantGain)
		}
		wantThr, wantGain = scanSplitsReg(ev, ey, ones(len(ev)), 9, minLeaf)
		thr, gain = scanSplitsReg(vals, ys, weights, 9, minLeaf)
		if thr != wantThr || math.Abs(gain-wantGain) > 1e-12*math.Abs(wantGain) {
			t.Errorf("reg minLeaf=%d: weighted (%v, %v), expanded (%v, %v)", minLeaf, thr, gain, wantThr, wantGain)
		}
	}
	// The weight-3 unit at the left edge is admissible at minLeaf 3 and not
	// at 4: the 1|2 boundary has three samples on its left.
	edge := []float64{1, 2, 3}
	edgeLabels := []int32{1, 0, 0}
	edgeWeights := []float64{3, 2, 2}
	if thr, gain := scanSplitsClass(edge, edgeLabels, edgeWeights, lcnt, rcnt, 0.49, 3); thr != 1.5 || math.IsInf(gain, -1) {
		t.Fatalf("weight-3 edge unit at minLeaf 3: threshold %v gain %v, want the 1|2 boundary", thr, gain)
	}
	if thr, _ := scanSplitsClass(edge, edgeLabels, edgeWeights, lcnt, rcnt, 0.49, 4); thr == 1.5 {
		t.Fatal("weight-3 edge unit admitted as a leaf at minLeaf 4")
	}
	if thr, gain := scanSplitsReg(edge, []float64{5, 0, 0}, edgeWeights, 6, 3); thr != 1.5 || math.IsInf(gain, -1) {
		t.Fatalf("reg weight-3 edge unit at minLeaf 3: threshold %v gain %v, want the 1|2 boundary", thr, gain)
	}
}

// TestScanSplitsMinLeafBoundary: with n=6 and minLeaf=3 only the middle
// boundary (3|3) is admissible, even when an outer boundary has the better
// gain.
func TestScanSplitsMinLeafBoundary(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	// Best unconstrained split is 1|5 (isolate the lone 1-label); minLeaf=3
	// forces the 3|3 boundary at threshold 3.5.
	labels := []int32{1, 0, 0, 0, 1, 1}
	lcnt, rcnt := make([]float64, 2), make([]float64, 2)
	parent := 0.5
	thr, gain := scanSplitsClass(vals, labels, ones(6), lcnt, rcnt, parent, 3)
	if thr != 3.5 {
		t.Fatalf("class minLeaf=3 threshold %v, want 3.5", thr)
	}
	if math.IsInf(gain, -1) {
		t.Fatal("class minLeaf=3: no split found, want the middle boundary")
	}
	ys := []float64{9, 0, 0, 0, 9, 9}
	thr, gain = scanSplitsReg(vals, ys, ones(6), 18, 3)
	if thr != 3.5 {
		t.Fatalf("reg minLeaf=3 threshold %v, want 3.5", thr)
	}
	if math.IsInf(gain, -1) {
		t.Fatal("reg minLeaf=3: no split found, want the middle boundary")
	}
	// minLeaf larger than n/2: no admissible boundary at all.
	if _, gain := scanSplitsClass(vals, labels, ones(6), lcnt, rcnt, parent, 4); !math.IsInf(gain, -1) {
		t.Fatalf("class minLeaf=4 on n=6: gain %v, want -Inf", gain)
	}
}

// TestScanSplitsZeroGainAccepted: XOR's first cut has exactly zero Gini gain;
// the scan must still return it (gain 0, not -Inf) so trees can descend into
// nested structure — tree.go only rejects negative gains.
func TestScanSplitsZeroGainAccepted(t *testing.T) {
	vals := []float64{0, 0, 1, 1}
	labels := []int32{0, 1, 0, 1}
	lcnt, rcnt := make([]float64, 2), make([]float64, 2)
	thr, gain := scanSplitsClass(vals, labels, ones(4), lcnt, rcnt, 0.5, 1)
	if gain != 0 {
		t.Fatalf("XOR boundary gain %v, want exactly 0", gain)
	}
	if thr != 0.5 {
		t.Fatalf("XOR boundary threshold %v, want 0.5", thr)
	}
}

// TestTreeIgnoresConstantFeature: a constant column can never split; the tree
// must put all its importance on the informative column, for both tasks and
// both kernel regimes.
func TestTreeIgnoresConstantFeature(t *testing.T) {
	for _, task := range []Task{Classification, Regression} {
		for _, n := range []int{40, 400} { // flat regime and presorted regime
			x := make([]float64, n*2)
			y := make([]float64, n)
			for i := 0; i < n; i++ {
				x[i*2] = 7 // constant
				x[i*2+1] = float64(i)
				y[i] = float64(i)
				if task == Classification && i < n/2 {
					y[i] = 0
				} else if task == Classification {
					y[i] = 1
				}
			}
			classes := 0
			if task == Classification {
				classes = 2
			}
			ds, err := NewDataset(x, n, 2, y, task, classes)
			if err != nil {
				t.Fatal(err)
			}
			tree := FitTree(ds, nil, TreeConfig{}, nil)
			imp := tree.Importance()
			if imp[0] != 0 {
				t.Fatalf("%v n=%d: constant feature importance %v, want 0", task, n, imp[0])
			}
			if tree.NumNodes() <= 1 {
				t.Fatalf("%v n=%d: tree never split on the informative feature", task, n)
			}
		}
	}
}

// TestTreeAllConstantFeatures: with every column constant the tree must stay
// a single leaf predicting the majority class / target mean.
func TestTreeAllConstantFeatures(t *testing.T) {
	n := 30
	x := make([]float64, n*3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i*3], x[i*3+1], x[i*3+2] = 1, 2, 3
		if i < 20 {
			y[i] = 1
		}
	}
	ds, err := NewDataset(x, n, 3, y, Classification, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree := FitTree(ds, nil, TreeConfig{}, nil)
	if tree.NumNodes() != 1 {
		t.Fatalf("all-constant features grew %d nodes, want a lone leaf", tree.NumNodes())
	}
	if got := tree.Predict([]float64{1, 2, 3}); got != 1 {
		t.Fatalf("majority prediction %v, want 1", got)
	}
}

// TestImportanceReturnsCopy: mutating the slices returned by
// Tree.Importance and Forest.Importances must not corrupt the fitted models
// (RIFS hands these slices to ranking code that is free to scribble on them).
func TestImportanceReturnsCopy(t *testing.T) {
	ds := kernelFixture(120, 4, Classification, 3)
	tree := FitTree(ds, nil, TreeConfig{}, nil)
	ti := tree.Importance()
	for j := range ti {
		ti[j] = -1
	}
	for j, v := range tree.Importance() {
		if v < 0 {
			t.Fatalf("tree importance[%d] corrupted through returned slice", j)
		}
	}
	f := FitForest(ds, ForestConfig{NTrees: 5, Seed: 1})
	fi := f.Importances()
	for j := range fi {
		fi[j] = -1
	}
	for j, v := range f.Importances() {
		if v < 0 {
			t.Fatalf("forest importance[%d] corrupted through returned slice", j)
		}
	}
}

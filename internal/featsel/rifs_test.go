package featsel

import (
	"context"
	"errors"

	"testing"

	"github.com/arda-ml/arda/internal/ml"
)

func TestRIFSRStarSeparatesSignal(t *testing.T) {
	ds := planted(ml.Classification, 300, 3, 30, 31)
	r := &RIFS{Config: RIFSConfig{K: 6, Forest: ForestRanker{NTrees: 25, MaxDepth: 8}}}
	rstar, err := r.RStar(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rstar) != ds.D {
		t.Fatalf("rstar length = %d", len(rstar))
	}
	for j := 0; j < 3; j++ {
		if rstar[j] < 0.5 {
			t.Fatalf("signal feature %d has r* = %v, want >= 0.5", j, rstar[j])
		}
	}
	// Most noise features should rarely beat all injected noise.
	weak := 0
	for j := 3; j < ds.D; j++ {
		if rstar[j] < 0.5 {
			weak++
		}
	}
	if weak < (ds.D-3)*2/3 {
		t.Fatalf("only %d/%d noise features below 0.5", weak, ds.D-3)
	}
}

func TestRIFSSelectKeepsSignal(t *testing.T) {
	ds := planted(ml.Regression, 250, 3, 27, 33)
	r := &RIFS{Config: RIFSConfig{K: 6, Forest: ForestRanker{NTrees: 25, MaxDepth: 8}}}
	sel, err := r.Select(ds, fastForest(6), 34)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("RIFS selected nothing on a dataset with clear signal")
	}
	keep := map[int]bool{}
	for _, j := range sel {
		keep[j] = true
	}
	hits := 0
	for j := 0; j < 3; j++ {
		if keep[j] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("RIFS kept %d/3 signal features: %v", hits, sel)
	}
	// Selection should be clearly smaller than the full feature set (with
	// only K=6 repetitions the r* estimates are coarse, so allow some slack).
	if len(sel) > ds.D*2/3 {
		t.Fatalf("RIFS kept %d/%d features — not selective", len(sel), ds.D)
	}
}

func TestRIFSSimpleInjection(t *testing.T) {
	ds := planted(ml.Classification, 200, 2, 10, 35)
	r := &RIFS{Config: RIFSConfig{
		K:         4,
		Injection: SimpleDistributions,
		Forest:    ForestRanker{NTrees: 20, MaxDepth: 6},
	}}
	rstar, err := r.RStar(ds, 36)
	if err != nil {
		t.Fatal(err)
	}
	if rstar[0] < 0.5 || rstar[1] < 0.5 {
		t.Fatalf("simple-injection r* lost the signal: %v", rstar[:2])
	}
}

func TestRIFSDeterministic(t *testing.T) {
	ds := planted(ml.Classification, 150, 2, 8, 37)
	r := &RIFS{Config: RIFSConfig{K: 3, Forest: ForestRanker{NTrees: 10, MaxDepth: 5}}}
	a, err := r.RStar(ds, 38)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RStar(ds, 38)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same seed must give identical r*")
		}
	}
}

func TestInjectIntoShape(t *testing.T) {
	ds := planted(ml.Regression, 50, 1, 2, 39)
	inject := func(repSeed int64, col int, out []float64) {
		for i := range out {
			out[i] = float64(col)
		}
	}
	const tcols = 4
	d2 := ds.D + tcols
	x := make([]float64, ds.N*d2)
	for i := 0; i < ds.N; i++ {
		copy(x[i*d2:i*d2+ds.D], ds.Row(i))
	}
	cols := make([]float64, tcols*ds.N)
	injectInto(x, ds.N, ds.D, tcols, inject, 1, cols)
	// The columnar scratch retains each injected column for presorting.
	for c := 0; c < tcols; c++ {
		if cols[c*ds.N] != float64(c) {
			t.Fatal("columnar copy missing after injection")
		}
	}
	aug := &ml.Dataset{X: x, N: ds.N, D: d2, Y: ds.Y, Task: ds.Task, Classes: ds.Classes}
	// Original features preserved, injected values in place.
	for i := 0; i < ds.N; i++ {
		for j := 0; j < ds.D; j++ {
			if aug.At(i, j) != ds.At(i, j) {
				t.Fatal("original features modified by injection")
			}
		}
		if aug.At(i, ds.D+2) != 2 {
			t.Fatal("injected column misplaced")
		}
	}
}

func TestRIFSSupportsBothTasks(t *testing.T) {
	r := &RIFS{}
	if !r.Supports(ml.Classification) || !r.Supports(ml.Regression) {
		t.Fatal("RIFS must support both tasks")
	}
	if r.Name() != "RIFS" {
		t.Fatalf("Name = %q", r.Name())
	}
}

// walkThresholds is Algorithm 3's wrapper over a callback scorer, built from
// the same two halves the production sweep uses: thresholdSubsets names the
// candidates, every distinct one is scored once, monotoneWalk picks.
func walkThresholds(rstar, thresholds []float64, score func([]int) float64) []int {
	subsets, uniq := thresholdSubsets(rstar, thresholds)
	scores := make([]float64, len(uniq))
	for i, cols := range uniq {
		scores[i] = score(cols)
	}
	return monotoneWalk(subsets, uniq, scores)
}

func TestSweepThresholdsMonotoneStop(t *testing.T) {
	rstar := []float64{1.0, 1.0, 0.6, 0.3, 0.1}
	thresholds := []float64{0.2, 0.5, 0.9}
	// Scores: 4 features → 0.7, 3 features → 0.8 (improves), 2 features →
	// 0.75 (drops): the sweep must return the 3-feature subset.
	score := func(cols []int) float64 {
		switch len(cols) {
		case 4:
			return 0.7
		case 3:
			return 0.8
		default:
			return 0.75
		}
	}
	got := walkThresholds(rstar, thresholds, score)
	if len(got) != 3 {
		t.Fatalf("sweep returned %d features, want 3 (stop before the drop)", len(got))
	}
}

func TestSweepThresholdsEmpty(t *testing.T) {
	rstar := []float64{0.1, 0.05}
	got := walkThresholds(rstar, []float64{0.5, 0.9}, func([]int) float64 { return 1 })
	if got != nil {
		t.Fatalf("no feature clears the thresholds, want nil, got %v", got)
	}
}

func TestSweepThresholdsMonotoneImprovementGoesToEnd(t *testing.T) {
	rstar := []float64{1.0, 0.8, 0.6, 0.4}
	calls := 0
	score := func(cols []int) float64 {
		calls++
		return 1 - float64(len(cols))*0.1 // fewer features always better
	}
	// The count assertion checks that duplicate subsets are scored once.
	got := walkThresholds(rstar, []float64{0.3, 0.5, 0.7, 0.9}, score)
	if len(got) != 1 {
		t.Fatalf("monotone improvement should reach the tightest threshold, got %d features", len(got))
	}
	if calls != 4 {
		t.Fatalf("expected 4 scorer calls, got %d", calls)
	}
}

// TestRIFSSelectCtxCanceled: an already-canceled context stops SelectCtx
// with the context error before any repetition work is done, and a live
// context returns exactly what Select returns.
func TestRIFSSelectCtxCanceled(t *testing.T) {
	ds := planted(ml.Regression, 120, 2, 12, 41)
	r := &RIFS{Config: RIFSConfig{K: 4, Forest: ForestRanker{NTrees: 10, MaxDepth: 5}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.SelectCtx(ctx, ds, fastForest(6), 42); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectCtx under canceled ctx = %v, want context.Canceled", err)
	}
	want, err := r.Select(ds, fastForest(6), 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.SelectCtx(context.Background(), ds, fastForest(6), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SelectCtx = %v, Select = %v; must be identical", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SelectCtx = %v, Select = %v; must be identical", got, want)
		}
	}
}

package ml

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func sameForest(t *testing.T, want, got *Forest) {
	t.Helper()
	if len(want.Trees) != len(got.Trees) {
		t.Fatalf("tree count %d != %d", len(got.Trees), len(want.Trees))
	}
	for i := range want.Trees {
		if !sameTree(want.Trees[i], got.Trees[i]) {
			t.Fatalf("tree %d differs", i)
		}
	}
	wi, gi := want.Importances(), got.Importances()
	for j := range wi {
		if wi[j] != gi[j] {
			t.Fatalf("importance[%d] %v != %v", j, gi[j], wi[j])
		}
	}
}

// TestSplitViewForestEquivalence: a forest fitted from an attached
// PresortColumns view must be bit-identical to one that builds its own split
// set — classification, whose histograms read the view's rank codes, at a
// narrow and a wide mtry, and regression in the flat and presorted regimes.
func TestSplitViewForestEquivalence(t *testing.T) {
	cases := []struct {
		name string
		task Task
		cfg  ForestConfig
	}{
		// mtry restricted → flat regime for regression; the view's orders
		// are there, unused, where plain FitForest builds none.
		{"flat_scan_classification", Classification, ForestConfig{NTrees: 8, MaxDepth: 10, MTry: 3, Seed: 4}},
		{"flat_scan_regression", Regression, ForestConfig{NTrees: 8, MaxDepth: 10, MTry: 2, Seed: 4}},
		// defaults → presorted regime for regression at d=24.
		{"presorted_regression", Regression, ForestConfig{NTrees: 6, MaxDepth: 8, Seed: 11}},
		{"presorted_classification", Classification, ForestConfig{NTrees: 6, MaxDepth: 8, MTry: 20, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := kernelFixture(220, 24, tc.task, 17)
			want := FitForest(ds, tc.cfg)

			ds.AttachSplits(NewSplitView(ds, PresortColumns(ds, 0), nil))
			got := FitForest(ds, tc.cfg)
			ds.AttachSplits(nil)

			sameForest(t, want, got)
		})
	}
}

// TestSplitViewWithExtraColumns mirrors the RIFS repetition shape: a dense
// augmented design whose first d columns are shared presorted real columns
// and whose last t columns are caller-presorted per-repetition noise. The view-backed
// forest must equal the plain one bit-for-bit.
func TestSplitViewWithExtraColumns(t *testing.T) {
	base := kernelFixture(180, 12, Classification, 23)
	n, d, extra := base.N, base.D, 5
	d2 := d + extra
	x := make([]float64, n*d2)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		copy(x[i*d2:], base.Row(i))
		for c := 0; c < extra; c++ {
			x[i*d2+d+c] = rng.NormFloat64()
		}
	}
	aug := &Dataset{X: x, N: n, D: d2, Y: base.Y, Task: base.Task, Classes: base.Classes}
	cfg := ForestConfig{NTrees: 10, MaxDepth: 10, Seed: 2}
	want := FitForest(aug, cfg)

	real := PresortColumns(base, 0)
	noise := make([]SplitColumn, extra)
	for c := 0; c < extra; c++ {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = x[i*d2+d+c]
		}
		noise[c] = NewSplitColumn(vals, make([]int32, n))
	}
	aug.AttachSplits(NewSplitView(base, real, noise))
	got := FitForest(aug, cfg)
	aug.AttachSplits(nil)

	sameForest(t, want, got)
}

// TestSplitViewShapeMismatchFallsBack: a stale or mismatched attachment must
// be ignored, not trusted.
func TestSplitViewShapeMismatchFallsBack(t *testing.T) {
	ds := kernelFixture(120, 8, Classification, 5)
	other := kernelFixture(120, 6, Classification, 5) // fewer columns
	ds.AttachSplits(NewSplitView(other, PresortColumns(other, 0), nil))
	want := FitForest(ds, ForestConfig{NTrees: 4, Seed: 1})
	ds.AttachSplits(nil)
	plain := FitForest(ds, ForestConfig{NTrees: 4, Seed: 1})
	sameForest(t, plain, want)
}

// TestPresortColumnsMatchesNewSplitColumn: the parallel cold build must
// give identical columns at 1 and 8 workers, each carrying exactly the order
// a caller-presorted NewSplitColumn builds — and no order at all for a
// two-valued column.
func TestPresortColumnsMatchesNewSplitColumn(t *testing.T) {
	ds := oneHotFixture(200, 8, 8, 3, Regression, 77)
	one := PresortColumns(ds, 1)
	eight := PresortColumns(ds, 8)
	for j := 0; j < ds.D; j++ {
		vals := make([]float64, ds.N)
		for i := range vals {
			vals[i] = ds.At(i, j)
		}
		want := NewSplitColumn(vals, make([]int32, ds.N))
		if !want.Presorted() {
			t.Fatal("NewSplitColumn with ord buffer must presort")
		}
		for _, got := range []SplitColumn{one[j], eight[j]} {
			if !reflect.DeepEqual(got.v, want.v) || !reflect.DeepEqual(got.mask, want.mask) ||
				got.lo != want.lo || got.hi != want.hi {
				t.Fatalf("column %d: values or mask differ", j)
			}
			if (want.mask == nil) != (got.ord != nil) {
				t.Fatalf("column %d: order present = %v, two-valued = %v", j, got.ord != nil, want.mask != nil)
			}
			if got.ord != nil && !reflect.DeepEqual(got.ord, want.ord) {
				t.Fatalf("column %d: order differs from NewSplitColumn's", j)
			}
		}
	}
}

// TestSplitViewGroupsExtraColumns: a view groups its shared and extra
// columns together, as the split set FitForest builds over the whole design
// does — here an extra indicator of the rows an incomplete one-hot leaves
// empty joins the shared columns' group, and one overlapping it starts its
// own — and the forest fitted through the view is the plain one bit for bit,
// presorted throughout and handing off to the flat kernel.
func TestSplitViewGroupsExtraColumns(t *testing.T) {
	base := groupingFixtures(Regression)[1].ds // continuous, then a 6-level one-hot with empty rows
	n, d, extra := base.N, base.D, 2
	d2 := d + extra
	x := make([]float64, n*d2)
	noise := make([]SplitColumn, extra)
	vals := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		copy(x[i*d2:], base.Row(i))
		empty := true
		for _, v := range base.Row(i)[1:] {
			empty = empty && v == 0
		}
		vals[0][i] = b2f(empty)
		vals[1][i] = b2f(!empty && i%3 == 0)
		x[i*d2+d], x[i*d2+d+1] = vals[0][i], vals[1][i]
	}
	for c := range noise {
		noise[c] = NewSplitColumn(vals[c], make([]int32, n))
	}
	aug := &Dataset{X: x, N: n, D: d2, Y: base.Y, Task: base.Task}
	view := NewSplitView(base, PresortColumns(base, 0), noise)
	own := buildSplitSet(aug, 1, true)
	if got := groupSizes(view.ss.groups); !slices.Equal(got, []int{7, 1}) ||
		!slices.Equal(view.ss.twoOf, own.twoOf) || !slices.Equal(got, groupSizes(own.groups)) {
		t.Fatalf("view groups %v (%v), own split set %v (%v), want sizes [7 1]",
			got, view.ss.twoOf, groupSizes(own.groups), own.twoOf)
	}
	for _, cfg := range []ForestConfig{
		{NTrees: 6, MaxDepth: 10, Seed: 3},          // mtry = d/3: presorted throughout
		{NTrees: 6, MaxDepth: 10, MTry: 1, Seed: 3}, // presorted root, flat below 256 samples
	} {
		want := FitForest(aug, cfg)
		aug.AttachSplits(view)
		got := FitForest(aug, cfg)
		aug.AttachSplits(nil)
		sameForest(t, want, got)
	}
}

package ml

import (
	"math"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/parallel"
)

// kernelFixture builds a dataset with duplicated feature values (quantized
// draws) so the split kernels' tie handling is exercised, plus a label/target
// carrying real signal.
func kernelFixture(n, d int, task Task, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			// Quantize to force duplicate values within every column.
			x[i*d+j] = math.Floor(rng.Float64()*8) / 8
		}
		s := x[i*d] + 0.5*x[i*d+1] - x[i*d+2]
		if task == Classification {
			if s > 0.25 {
				y[i] = 1
			}
		} else {
			y[i] = s + 0.05*rng.NormFloat64()
		}
	}
	classes := 0
	if task == Classification {
		classes = 2
	}
	ds, err := NewDataset(x, n, d, y, task, classes)
	if err != nil {
		panic(err)
	}
	return ds
}

// sameTree reports whether two fitted trees are structurally identical
// (nodes, thresholds, predictions, and importances all bit-equal).
func sameTree(a, b *Tree) bool {
	if len(a.nodes) != len(b.nodes) || len(a.importance) != len(b.importance) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for j := range a.importance {
		if a.importance[j] != b.importance[j] {
			return false
		}
	}
	return true
}

// TestTreeKernelEquivalenceClassification: the live kernel must reproduce the
// legacy sort-per-node kernel's classification trees bit-for-bit, in both
// regimes (presorted for large nodes, flat for small ones / restricted MTry)
// and with duplicate indices in idx (bootstrap-style multiplicities).
func TestTreeKernelEquivalenceClassification(t *testing.T) {
	cases := []struct {
		name string
		n, d int
		cfg  TreeConfig
		boot bool
	}{
		{"presorted", 400, 5, TreeConfig{}, false},
		{"presorted_minleaf", 400, 5, TreeConfig{MinLeaf: 7}, false},
		{"flat_small_n", 60, 5, TreeConfig{}, false},
		{"flat_mtry", 300, 24, TreeConfig{MTry: 2}, true},
		{"presorted_bootstrap", 400, 5, TreeConfig{}, true},
		{"depth_capped", 400, 5, TreeConfig{MaxDepth: 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := kernelFixture(tc.n, tc.d, Classification, 11)
			var idx []int
			if tc.boot {
				brng := rand.New(rand.NewSource(99))
				idx = make([]int, tc.n)
				for i := range idx {
					idx[i] = brng.Intn(tc.n)
				}
			}
			want := fitTreeLegacy(ds, idx, tc.cfg, rand.New(rand.NewSource(42)))
			got := FitTree(ds, idx, tc.cfg, rand.New(rand.NewSource(42)))
			if !sameTree(want, got) {
				t.Fatalf("live kernel tree differs from legacy kernel (nodes %d vs %d)",
					got.NumNodes(), want.NumNodes())
			}
		})
	}
}

// TestTreeKernelEquivalenceRegressionTieFree: in the flat regime the live
// kernel gathers, partitions, and sums in exactly the legacy order, so with
// tie-free columns and no duplicate samples regression trees must match
// bit-for-bit. (The presorted regime iterates node members in value order
// rather than partition order, so its regression sums — and hence leaf values
// — can differ in the last ulp; that regime is covered by the aggregate
// forest test below.)
func TestTreeKernelEquivalenceRegressionTieFree(t *testing.T) {
	cases := []struct {
		n, d int
		cfg  TreeConfig
	}{
		{60, 4, TreeConfig{}}, // below the small-node cutoff
		{60, 4, TreeConfig{MinLeaf: 5}},
		{300, 24, TreeConfig{MTry: 2}}, // mtry·log₂(m) = 18 < 24: flat
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(7))
		x := make([]float64, tc.n*tc.d)
		y := make([]float64, tc.n)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.d; j++ {
				x[i*tc.d+j] = rng.Float64() // continuous draws: ties have measure zero
			}
			y[i] = 2*x[i*tc.d] - x[i*tc.d+tc.d-1] + 0.1*rng.NormFloat64()
		}
		ds, err := NewDataset(x, tc.n, tc.d, y, Regression, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := fitTreeLegacy(ds, nil, tc.cfg, rand.New(rand.NewSource(3)))
		got := FitTree(ds, nil, tc.cfg, rand.New(rand.NewSource(3)))
		if !sameTree(want, got) {
			t.Fatalf("n=%d d=%d cfg %+v: flat-regime regression tree differs from legacy", tc.n, tc.d, tc.cfg)
		}
	}
}

// TestForestKernelEquivalenceClassification: FitForest with the shared split
// set must reproduce the reference per-tree kernel's forest exactly — same
// bootstrap RNG streams, same trees, same aggregated importances.
func TestForestKernelEquivalenceClassification(t *testing.T) {
	ds := kernelFixture(250, 10, Classification, 21)
	cfg := ForestConfig{NTrees: 12, MaxDepth: 8, Seed: 5, Parallel: true}
	sameForest(t, refFitForest(ds, cfg), FitForest(ds, cfg))
}

// TestForestKernelEquivalenceRegression: bootstrap duplicates are ties, and
// the kernels order tied targets differently (sort.Slice's unstable order vs
// the stable (value, position) order), so regression partial sums — and
// occasionally a near-equal split argmax — can differ. The ensembles must
// still agree closely in aggregate on the training rows.
func TestForestKernelEquivalenceRegression(t *testing.T) {
	ds := kernelFixture(200, 6, Regression, 31)
	cfg := ForestConfig{NTrees: 10, MaxDepth: 8, Seed: 9}
	fNew := FitForest(ds, cfg)
	fOld := refFitForest(ds, cfg)
	sum := 0.0
	for i := 0; i < ds.N; i++ {
		sum += math.Abs(fNew.Predict(ds.Row(i)) - fOld.Predict(ds.Row(i)))
	}
	if mad := sum / float64(ds.N); mad > 0.02 {
		t.Fatalf("mean |new-reference| prediction gap %v, want < 0.02", mad)
	}
}

// TestForestMatchesReference: the one production forest path against the
// frozen reference at 1 and 8 workers, over the selection-forest shape (flat
// regime, mtry = √d) and the evaluation shape (presorted regime), through
// FitForest and through the FitForests wave.
func TestForestMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		ds   *Dataset
		cfg  ForestConfig
	}{
		{"flat", kernelFixture(160, 40, Classification, 41), ForestConfig{NTrees: 9, MaxDepth: 8, Seed: 3, Parallel: true}},
		{"presorted", kernelFixture(400, 5, Classification, 43), ForestConfig{NTrees: 6, MinLeaf: 3, Seed: 11, Parallel: true}},
	}
	defer parallel.SetMaxWorkers(0)
	for _, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		for _, sh := range shapes {
			want := refFitForest(sh.ds, sh.cfg)
			sameForest(t, want, FitForest(sh.ds, sh.cfg))
			sameForest(t, want, FitForests(0, []ForestJob{{DS: sh.ds, Cfg: sh.cfg}})[0])
		}
	}
}

// TestUseFlatKernelRule pins the regime rule: monotone in m (once a subtree
// goes flat it stays flat), flat below the small-node cutoff, and crossing
// exactly at mtry·ceil(log₂ m) vs d.
func TestUseFlatKernelRule(t *testing.T) {
	if !useFlatKernel(3, 100, 64) {
		t.Fatal("small nodes must use the flat kernel")
	}
	if !useFlatKernel(12, 148, 160) { // 12·8 = 96 < 148: ARDA's selection-forest shape
		t.Fatal("classification selection shape (mtry=sqrt(d)) should be flat")
	}
	if useFlatKernel(49, 148, 160) { // 49·8 = 392 >= 148: regression shape (mtry=d/3)
		t.Fatal("regression shape (mtry=d/3) should be presorted")
	}
	// Monotone in m: growing m can only move flat → presorted, never back,
	// so a subtree that goes flat stays flat as its nodes shrink.
	for _, mtry := range []int{1, 5, 20} {
		for _, d := range []int{10, 100} {
			sawPresorted := false
			for m := 2; m <= 1<<20; m *= 2 {
				flat := useFlatKernel(mtry, d, m)
				if flat && sawPresorted {
					t.Fatalf("mtry=%d d=%d: flat at m=%d after presorted at smaller m", mtry, d, m)
				}
				if !flat {
					sawPresorted = true
				}
			}
		}
	}
}

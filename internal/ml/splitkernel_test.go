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
// kernel gathers and partitions in the legacy order, but it centres the
// targets and scores boundaries by CART's proxy from sums against the node
// totals, so its regression sums round differently. With tie-free columns, no
// duplicate samples and leaves of at least five samples, trees must still
// match the legacy kernel split for split — same features, thresholds and
// children — with node values within 1e-12 of the legacy's and importances
// within 1e-12 of the tree's total. (With smaller leaves a node of two or
// three samples can be cut two ways of mathematically equal gain, and the
// last ulp picks one.) Every shape here is flat from the root under the cost
// rule. (The presorted regime iterates node members in value order rather
// than partition order; that regime, small nodes included, is covered by the
// aggregate forest test below.)
func TestTreeKernelEquivalenceRegressionTieFree(t *testing.T) {
	cases := []struct {
		n, d int
		cfg  TreeConfig
	}{
		{60, 24, TreeConfig{MTry: 2, MinLeaf: 8}}, // mtry·⌈log₂ m⌉ = 12 < 24
		{60, 24, TreeConfig{MTry: 2, MinLeaf: 5}},
		{300, 24, TreeConfig{MTry: 2, MinLeaf: 8}}, // 18 < 24
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
		if mtry := resolveMTry(tc.cfg.MTry, tc.d); !useFlatKernel(mtry, tc.d, tc.n) {
			t.Fatalf("n=%d d=%d cfg %+v is not flat from the root: the case tests nothing", tc.n, tc.d, tc.cfg)
		}
		if len(got.nodes) != len(want.nodes) || len(got.nodes) < 5 {
			t.Fatalf("n=%d cfg %+v: %d nodes, legacy %d", tc.n, tc.cfg, len(got.nodes), len(want.nodes))
		}
		for i, a := range want.nodes {
			b := got.nodes[i]
			if a.feature != b.feature || a.threshold != b.threshold || a.left != b.left || a.right != b.right ||
				math.Abs(a.value-b.value) > 1e-12 {
				t.Fatalf("n=%d cfg %+v, node %d: %+v, legacy %+v", tc.n, tc.cfg, i, b, a)
			}
		}
		total := 0.0
		for _, v := range want.importance {
			total += v
		}
		for j, v := range want.importance {
			if math.Abs(got.importance[j]-v) > 1e-12*total {
				t.Fatalf("n=%d cfg %+v: importance[%d] %v, legacy %v", tc.n, tc.cfg, j, got.importance[j], v)
			}
		}
	}
}

// expandCounts lists row r cnt[r] times, rows ascending: the bootstrap
// copies a tree over units stands for, in row-major order.
func expandCounts(cnt []int32) []int {
	var idx []int
	for r, c := range cnt {
		for k := int32(0); k < c; k++ {
			idx = append(idx, r)
		}
	}
	return idx
}

// TestUnitsMatchExpandedCopies pins the sample representation: a tree grown
// over a bootstrap's units (fitTreeFromSplitSet over per-row multiplicities)
// is the tree FitTree grows over the expanded index list, one weight-1 unit
// per copy. Classification trees are bit-equal — class counts add integer
// weights exactly — in both regimes, with and without global orders, on the
// one-hot and the mixed fixtures. Regression trees over a tie-free fixture
// keep every feature, threshold and child; only their sums round
// differently, so node values agree within 1e-12 relative. Tie-free means
// continuous values and leaves of at least eight samples: in a node of a few
// units, two features can cut out the same partition, and which of their
// mathematically equal gains wins is decided by last-ulp rounding.
func TestUnitsMatchExpandedCopies(t *testing.T) {
	type shape struct {
		name   string
		ds     *Dataset
		cfg    TreeConfig
		flat   bool // the root's regime, asserted so no case tests nothing
		orders bool // the split set carries global orders (counting scans when flat)
	}
	fit := func(t *testing.T, sh shape, seed int64) (units, copies *Tree) {
		t.Helper()
		if got := useFlatKernel(resolveMTry(sh.cfg.MTry, sh.ds.D), sh.ds.D, sh.ds.N); got != sh.flat {
			t.Fatalf("%s: root flat=%v, want %v", sh.name, got, sh.flat)
		}
		ws := &treeWorkspace{}
		drawBootstrap(ws, sh.ds.N, rand.New(rand.NewSource(seed)))
		idx := expandCounts(ws.cnt)
		units = fitTreeFromSplitSet(buildSplitSet(sh.ds, 1, sh.orders), sh.cfg, rand.New(rand.NewSource(seed+1)), ws)
		copies = FitTree(sh.ds, idx, sh.cfg, rand.New(rand.NewSource(seed+1)))
		return units, copies
	}

	oneHot := oneHotFixture(256, 64, 40, Classification, 29)
	mixed := twoValuedFixture(300, 24, Classification, 19)
	for _, sh := range []shape{
		{"one-hot flat", oneHot, TreeConfig{MTry: 10}, true, false},
		{"one-hot flat scan", oneHot, TreeConfig{MTry: 10, MinLeaf: 3}, true, true},
		{"one-hot presorted", oneHot, TreeConfig{MTry: 35, MaxDepth: 12}, false, true},
		{"mixed flat", mixed, TreeConfig{MTry: 2}, true, false},
		{"mixed flat scan", mixed, TreeConfig{MTry: 2}, true, true},
		{"mixed presorted", mixed, TreeConfig{MTry: 8, MinLeaf: 3}, false, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			if units, copies := fit(t, sh, seed); !sameTree(units, copies) {
				t.Errorf("%s, bootstrap %d: tree over units (%d nodes) differs from the tree over copies (%d nodes)",
					sh.name, seed, units.NumNodes(), copies.NumNodes())
			}
		}
	}

	n, d := 300, 12
	rng := rand.New(rand.NewSource(7))
	x, y := make([]float64, n*d), make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x[i*d+j] = rng.Float64() // continuous draws: ties have measure zero
		}
		y[i] = 3 + 2*x[i*d] - x[i*d+d-1] + 0.1*rng.NormFloat64()
	}
	tieFree := mustDataset(x, n, d, y, Regression, 0)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, sh := range []shape{
		{"tie-free flat", tieFree, TreeConfig{MTry: 1, MinLeaf: 8}, true, false},
		{"tie-free flat scan", tieFree, TreeConfig{MTry: 1, MinLeaf: 8}, true, true},
		{"tie-free presorted", tieFree, TreeConfig{MTry: 4, MinLeaf: 8}, false, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			units, copies := fit(t, sh, seed)
			if units.NumNodes() != copies.NumNodes() {
				t.Errorf("%s, bootstrap %d: %d nodes over units, %d over copies", sh.name, seed, units.NumNodes(), copies.NumNodes())
				continue
			}
			for i, a := range units.nodes {
				b := copies.nodes[i]
				if a.feature != b.feature || a.threshold != b.threshold || a.left != b.left || a.right != b.right || !near(a.value, b.value) {
					t.Errorf("%s, bootstrap %d, node %d: %+v over units, %+v over copies", sh.name, seed, i, a, b)
					break
				}
			}
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

// TestForestKernelEquivalenceRegression: the live kernel adds a drawn row's
// w·y once, where the reference adds y once per bootstrap copy in
// sort.Slice's unstable order, so regression partial sums — and occasionally
// a near-equal split argmax — can differ. The ensembles must
// still agree closely in aggregate on the training rows. The second shape is
// the one the cost rule alone keeps presorted at small nodes: 60 rows,
// mtry = d, so every node down to m = 2 partitions orders and never sorts.
func TestForestKernelEquivalenceRegression(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		cfg  ForestConfig
	}{
		{200, 6, ForestConfig{NTrees: 10, MaxDepth: 8, Seed: 9}},
		{60, 4, ForestConfig{NTrees: 10, MTry: 4, Seed: 9}},
	} {
		ds := kernelFixture(tc.n, tc.d, Regression, 31)
		fNew := FitForest(ds, tc.cfg)
		fOld := refFitForest(ds, tc.cfg)
		sum := 0.0
		for i := 0; i < ds.N; i++ {
			sum += math.Abs(fNew.Predict(ds.Row(i)) - fOld.Predict(ds.Row(i)))
		}
		if mad := sum / float64(ds.N); mad > 0.02 {
			t.Fatalf("n=%d d=%d: mean |new-reference| prediction gap %v, want < 0.02", tc.n, tc.d, mad)
		}
	}
}

// TestForestMatchesReference: the one production forest path against the
// frozen reference at 1 and 8 workers, over the selection-forest shape (flat
// regime, mtry = √d) and the evaluation shape (presorted regime).
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
		}
	}
}

// ceilLog2 is ⌈log₂ m⌉ for m ≥ 1, computed the slow way.
func ceilLog2(m int) int {
	k := 0
	for 1<<k < m {
		k++
	}
	return k
}

// TestUseFlatKernelRule pins the regime rule: flat exactly when
// mtry·⌈log₂ m⌉ < d at every m — no node size overrides it — hence monotone
// in m (once a subtree goes flat it stays flat); flat at m ≤ 1 and d = 0.
func TestUseFlatKernelRule(t *testing.T) {
	for _, tc := range []struct{ mtry, d int }{{1, 10}, {3, 100}, {5, 40}, {12, 148}, {49, 148}, {72, 216}, {20, 20}, {1, 1}} {
		sawPresorted := false
		for m := 2; m <= 1<<12; m++ {
			flat := useFlatKernel(tc.mtry, tc.d, m)
			if want := tc.mtry*ceilLog2(m) < tc.d; flat != want {
				t.Fatalf("mtry=%d d=%d m=%d: flat=%v, want mtry·⌈log₂ m⌉ < d = %v", tc.mtry, tc.d, m, flat, want)
			}
			if flat && sawPresorted {
				t.Fatalf("mtry=%d d=%d: flat at m=%d after presorted at smaller m", tc.mtry, tc.d, m)
			}
			sawPresorted = sawPresorted || !flat
		}
		for _, m := range []int{0, 1} {
			if !useFlatKernel(tc.mtry, tc.d, m) {
				t.Fatalf("mtry=%d d=%d: m=%d must be flat", tc.mtry, tc.d, m)
			}
		}
	}
	// The crossing, at its exact m: 5·⌈log₂ m⌉ < 40 holds up to m = 128.
	if !useFlatKernel(5, 40, 128) || useFlatKernel(5, 40, 129) {
		t.Fatal("mtry=5 d=40 must cross from flat to presorted between m=128 and m=129")
	}
	if useFlatKernel(49, 148, 64) || useFlatKernel(49, 148, 9) || !useFlatKernel(49, 148, 8) {
		t.Fatal("mtry=49 d=148 must stay presorted down to m=9 (49·4 ≥ 148) and go flat at m=8 (49·3 < 148)")
	}
	if !useFlatKernel(7, 0, 1000) {
		t.Fatal("a tree without features is flat")
	}
}

// TestKernelRegimeOfBenchmarkShapes names the regime — at the root and at
// nodes of 64, 16 and 4 samples — of the forests the benchmark fits, with
// FitForest's own mtry defaulting: which shapes ever sort is this table.
func TestKernelRegimeOfBenchmarkShapes(t *testing.T) {
	const P, F = false, true // presorted, flat
	for _, tc := range []struct {
		name string
		n, d int
		task Task
		want [4]bool // root, m = 64, 16, 4
	}{
		{"tall-base RIFS ranking forest (180 real + 36 injected)", 256, 216, Regression, [4]bool{P, P, P, F}},
		{"wide-repo RIFS ranking forest", 256, 387, Classification, [4]bool{F, F, F, F}},
		{"service RIFS ranking forest", 192, 130, Regression, [4]bool{P, P, P, F}},
		{"tall-base sweep forest (a subset on 3/4 of the coreset)", 192, 60, Regression, [4]bool{P, P, P, F}},
		{"wide-repo sweep forest", 192, 40, Classification, [4]bool{P, F, F, F}},
		{"tall-base evaluate forest", 9000, 73, Regression, [4]bool{P, P, P, F}},
		{"wide-repo evaluate forest", 1200, 100, Classification, [4]bool{P, F, F, F}},
	} {
		_, tcfg := resolveForestConfig(&Dataset{N: tc.n, D: tc.d, Task: tc.task}, ForestConfig{})
		for i, m := range [4]int{tc.n, 64, 16, 4} {
			if got := useFlatKernel(tcfg.MTry, tc.d, m); got != tc.want[i] {
				t.Errorf("%s (%d × %d, mtry %d) at m=%d: flat=%v, want %v", tc.name, tc.n, tc.d, tcfg.MTry, m, got, tc.want[i])
			}
		}
	}
}

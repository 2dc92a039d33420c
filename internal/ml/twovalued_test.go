package ml

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/parallel"
)

// twoValuedFixture builds the mixed design the two-valued split path is
// validated on. Column j's kind is j mod 8: a rare-ones one-hot, a balanced
// two-valued column over odd values (-3.5 / 7.25), a constant, an 8-level
// quantised column, a continuous one, a {-0, +0, 1} column (three bit
// patterns, two values), a {-Inf, 1.5} column, and a denser one-hot. Only
// kinds 0, 1 and 7 qualify as two-valued; the rest are the near misses the
// classifier must leave on the ordered path. The target draws on both kinds
// of column: three classes, or a continuous response.
func twoValuedFixture(n, d int, task Task, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for j := range row {
			u := rng.Float64()
			switch j % 8 {
			case 0:
				if u < 0.06 {
					row[j] = 1
				}
			case 1:
				row[j] = -3.5
				if u < 0.5 {
					row[j] = 7.25
				}
			case 2:
				row[j] = 2.5
			case 3:
				row[j] = math.Floor(u*8) / 8
			case 4:
				row[j] = rng.NormFloat64()
			case 5:
				switch {
				case u < 0.3:
					row[j] = math.Copysign(0, -1)
				case u < 0.6:
					row[j] = 0
				default:
					row[j] = 1
				}
			case 6:
				row[j] = 1.5
				if u < 0.3 {
					row[j] = math.Inf(-1)
				}
			case 7:
				if u < 0.15 {
					row[j] = 1
				}
			}
		}
		s := row[1]/7.25 + 2*row[0] + row[3] + 0.5*row[4] - row[5]
		if d > 7 {
			s += 1.5 * row[7]
		}
		if task == Classification {
			switch {
			case s > 1.2:
				y[i] = 2
			case s > 0.2:
				y[i] = 1
			}
		} else {
			y[i] = s + 0.1*rng.NormFloat64()
		}
	}
	return mustDataset(x, n, d, y, task, 3)
}

// oneHotFixture is the shape ARDA's base tables take after ToNumericView:
// hot/levels categorical variables of that many levels each, one-hot
// encoded (exactly one 1 per group and row), followed by cont continuous
// columns.
func oneHotFixture(n, hot, levels, cont int, task Task, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := hot + cont
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		s := 0.0
		for g := 0; g+levels <= hot; g += levels {
			level := rng.Intn(levels)
			row[g+level] = 1
			s += float64((level*(g/levels+3))%5) / 4
		}
		for j := hot; j < d; j++ {
			row[j] = rng.NormFloat64()
		}
		if cont > 0 {
			s += row[hot]
		}
		if task == Classification {
			y[i] = float64(int(math.Abs(s)*2) % 3)
		} else {
			y[i] = s + 0.1*rng.NormFloat64()
		}
	}
	return mustDataset(x, n, d, y, task, 3)
}

func mustDataset(x []float64, n, d int, y []float64, task Task, classes int) *Dataset {
	if task == Regression {
		classes = 0
	}
	ds, err := NewDataset(x, n, d, y, task, classes)
	if err != nil {
		panic(err)
	}
	return ds
}

// forestFingerprint is FNV-64a over everything a fitted forest computed:
// every node (feature, threshold bits, children, value bits), every tree's
// raw importances, and the aggregated importances.
func forestFingerprint(f *Forest) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range f.Trees {
		put(uint64(len(t.nodes)))
		for _, nd := range t.nodes {
			put(uint64(int64(nd.feature)))
			put(math.Float64bits(nd.threshold))
			put(uint64(nd.left)<<32 | uint64(uint32(nd.right)))
			put(math.Float64bits(nd.value))
		}
		for _, v := range t.importance {
			put(math.Float64bits(v))
		}
	}
	for _, v := range f.imp {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// withSplitView attaches a PresortColumns view over all of ds's columns for
// the duration of fn — the shape RIFS's ranking forests fit through.
func withSplitView(ds *Dataset, fn func()) {
	ds.AttachSplits(NewSplitView(ds, PresortColumns(ds, 0), nil))
	defer ds.AttachSplits(nil)
	fn()
}

// everyForestPath fits (ds, cfg) through FitForest alone and through an
// attached split view, at 1 and 8 workers, and hands each forest to check.
func everyForestPath(ds *Dataset, cfg ForestConfig, check func(path string, f *Forest)) {
	defer parallel.SetMaxWorkers(0)
	for _, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		check("FitForest", FitForest(ds, cfg))
		withSplitView(ds, func() { check("split view", FitForest(ds, cfg)) })
	}
}

// twoValuedShapes covers the kernel's regimes over the mixed fixture: flat
// from the root; presorted with large leaves; presorted all the way down
// (6·⌈log₂ m⌉ ≥ 16 until m = 4); presorted handing off to flat mid-tree
// (5·⌈log₂ m⌉ < 40 from m = 128); and MTry = d, which never goes flat.
var twoValuedShapes = []struct {
	name string
	n, d int
	cfg  ForestConfig
}{
	{"flat", 300, 24, ForestConfig{NTrees: 6, MTry: 2, Seed: 3, Parallel: true}},
	{"presorted", 600, 16, ForestConfig{NTrees: 5, MTry: 8, MinLeaf: 40, Seed: 5, Parallel: true}},
	{"presorted_deep", 400, 16, ForestConfig{NTrees: 6, MTry: 6, Seed: 7, Parallel: true}},
	{"handoff_rule", 400, 40, ForestConfig{NTrees: 6, MTry: 5, MaxDepth: 9, Seed: 11, Parallel: true}},
	{"mtry_all", 300, 12, ForestConfig{NTrees: 5, MTry: 12, MaxDepth: 10, Seed: 13, Parallel: true}},
}

// TestTwoValuedColumnsMatchReference: classification forests over the mixed
// fixture must equal the frozen sort-per-node reference bit-for-bit on every
// path and in every regime.
func TestTwoValuedColumnsMatchReference(t *testing.T) {
	check := func(name string, ds *Dataset, cfg ForestConfig) {
		want := forestFingerprint(refFitForest(ds, cfg))
		everyForestPath(ds, cfg, func(path string, f *Forest) {
			t.Helper()
			if forestFingerprint(f) != want {
				t.Errorf("%s via %s: forest differs from the reference kernel", name, path)
			}
		})
	}
	for _, sh := range twoValuedShapes {
		check(sh.name, twoValuedFixture(sh.n, sh.d, Classification, 19), sh.cfg)
	}
	// ARDA's own shapes: a selection forest over a coreset (mtry = √d, flat)
	// and an evaluation forest over a one-hot base table (presorted), its
	// indicators in eight 8-level groups or, as Poverty's are, two of 32.
	check("select_256x216", oneHotFixture(256, 64, 8, 152, Classification, 29),
		ForestConfig{NTrees: 8, MaxDepth: 12, Seed: 17, Parallel: true})
	check("evaluate_3000x65", oneHotFixture(3000, 64, 8, 1, Classification, 31),
		ForestConfig{NTrees: 3, MaxDepth: 12, Seed: 19, Parallel: true})
	check("evaluate_3000x65_32_levels", oneHotFixture(3000, 64, 32, 1, Classification, 31),
		ForestConfig{NTrees: 3, MaxDepth: 12, Seed: 19, Parallel: true})
}

// TestTwoValuedRegressionFingerprints pins regression forests — where tied
// values make the frozen reference's unstable sort diverge in the last bit,
// so it cannot referee — to recorded fingerprints: the values pin every
// node, tree importance and aggregate importance, alike at 1 and 8 workers,
// through FitForest alone and through a split view.
// TestUnitsMatchExpandedCopies pins the representation
// itself. The last two shapes are the ones ARDA fits: a RIFS ranking forest
// over a coreset (64 one-hot + 152 continuous columns) and an evaluation
// forest over a one-hot base table.
func TestTwoValuedRegressionFingerprints(t *testing.T) {
	type fixture struct {
		name string
		ds   *Dataset
		cfg  ForestConfig
		want uint64
	}
	var cases []fixture
	wants := []uint64{0xb794eab86a4e6a70, 0x80d020cb0f3ccb10, 0x9c234e354baebc8d, 0xd2c556cc3d536109, 0x3dd9b99113a8c8ee}
	for i, sh := range twoValuedShapes {
		cases = append(cases, fixture{sh.name, twoValuedFixture(sh.n, sh.d, Regression, 23), sh.cfg, wants[i]})
	}
	cases = append(cases,
		fixture{"rifs_256x216", oneHotFixture(256, 64, 8, 152, Regression, 29),
			ForestConfig{NTrees: 8, MaxDepth: 12, Seed: 17, Parallel: true}, 0xdff72447e39c01e3},
		fixture{"evaluate_3000x65", oneHotFixture(3000, 64, 8, 1, Regression, 31),
			ForestConfig{NTrees: 4, MaxDepth: 12, Seed: 19, Parallel: true}, 0xe0d158c9812bfba9},
	)
	for _, c := range cases {
		everyForestPath(c.ds, c.cfg, func(path string, f *Forest) {
			t.Helper()
			if got := forestFingerprint(f); got != c.want {
				t.Errorf("%s via %s: fingerprint %#x, want %#x", c.name, path, got, c.want)
			}
		})
	}
}

// TestClassifyTwo: exactly two finite values flag a column, with the smaller
// as lo and a mask of the rows holding hi; everything else stays ordered.
func TestClassifyTwo(t *testing.T) {
	negZero := math.Copysign(0, -1)
	c := NewSplitColumn([]float64{7.25, -3.5, -3.5, 7.25, 7.25}, make([]int32, 5))
	if c.mask == nil || c.lo != -3.5 || c.hi != 7.25 || c.ord != nil || !c.Presorted() {
		t.Fatalf("two finite values: %+v, want a two-valued column lo -3.5 hi 7.25 without an order", c)
	}
	for r, want := range []uint8{1, 0, 0, 1, 1} {
		if c.mask[r] != want {
			t.Fatalf("mask = %v, want [1 0 0 1 1]", c.mask)
		}
	}
	if z := NewSplitColumn([]float64{1, negZero, 1}, nil); z.mask == nil || !math.Signbit(z.lo) || z.hi != 1 {
		t.Fatalf("{-0, 1}: %+v, want two-valued with lo -0", z)
	}
	for name, vals := range map[string][]float64{
		"empty":        {},
		"one value":    {2, 2, 2},
		"three values": {0, 1, 0, 2},
		"a NaN":        {0, math.NaN(), 0},
		"two NaNs":     {math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)},
		"an Inf":       {1, math.Inf(1), 1},
		"a -Inf":       {math.Inf(-1), 1},
		"-0/+0":        {0, negZero, 0, negZero},
		"-0/+0/1":      {0, negZero, 1},
	} {
		c := NewSplitColumn(vals, make([]int32, len(vals)))
		if c.mask != nil {
			t.Errorf("%s: flagged two-valued (lo %v hi %v)", name, c.lo, c.hi)
		}
		if len(vals) > 0 && c.ord == nil {
			t.Errorf("%s: left without an order", name)
		}
	}
}

// TestNoTwoValuedColumnReservesNothing: a presorted tree over columns none of
// which is two-valued gets no position plane, no position→row map, no
// groups and no group scratch — the workspace is exactly what it was before
// the kernel learned about such columns.
func TestNoTwoValuedColumnReservesNothing(t *testing.T) {
	for _, tc := range []struct {
		ds     *Dataset
		planes int
	}{
		{kernelFixture(400, 6, Regression, 3), 6},
		{twoValuedFixture(400, 6, Regression, 3), 7},
	} {
		ss := buildSplitSet(tc.ds, 1, true)
		ws := &treeWorkspace{cnt: make([]int32, tc.ds.N)}
		for i := range ws.cnt {
			ws.cnt[i] = 1
		}
		fitTreeFromSplitSet(ss, TreeConfig{MTry: 3}, rand.New(rand.NewSource(1)), ws)
		two := tc.planes > tc.ds.D
		if len(ws.orders) != tc.planes*tc.ds.N || (ws.rowOf != nil) != two {
			t.Errorf("d=%d two-valued=%v: %d order entries (want %d planes of %d), rowOf %v",
				tc.ds.D, two, len(ws.orders), tc.planes, tc.ds.N, ws.rowOf != nil)
		}
		if (ss.groups != nil) != two || (ws.gsum != nil) != two || (ws.gseen != nil) != two {
			t.Errorf("d=%d two-valued=%v: %d groups, group scratch %d sums and %d stamps",
				tc.ds.D, two, len(ss.groups), len(ws.gsum), len(ws.gseen))
		}
	}
}

package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scanReg sweeps a materialised (values, targets, weights) sequence with
// regressionCut, the node totals taken from the sequence itself, and returns
// the winning threshold and its exact variance reduction (-Inf when no
// boundary is admissible).
func scanReg(vals, ys, weights []float64, minLeaf int) (float64, float64) {
	nt := totalsOf(ys, weights)
	c := regressionCut(vals, identity(len(vals)), ys, weights, &nt, minLeaf)
	if math.IsInf(c.score, -1) {
		return c.thr, c.score
	}
	return c.thr, varianceGain(c, &nt)
}

// totalsOf is nodeStats' regression totals over a materialised sequence.
func totalsOf(ys, weights []float64) nodeTotals {
	var t nodeTotals
	for i, y := range ys {
		w := weights[i]
		t.n += w
		t.sum += w * y
		t.sq += w * (y * y)
	}
	mean := t.sum / t.n
	t.imp = t.sq/t.n - mean*mean
	return t
}

// scanSplitsClass is the sorted-sequence Gini scan the rank-code histogram
// replaced, kept as its referee: it sweeps a node's value-sorted (values,
// labels, weights) sequence for the best Gini split; each entry stands for
// weights[i] samples, and minLeaf counts samples. leftCnt/rightCnt are
// class-count scratch. Moving w samples of class c from right to left
// changes Σcnt² by ±w·(2·cnt[c] ± w), so each entry updates in O(1). Every
// count is an integer, exact in float64, so the gains are bit-equal to those
// of the sequence with each entry repeated weights[i] times.
func scanSplitsClass(vals []float64, labels []int32, weights, leftCnt, rightCnt []float64, parentImp float64, minLeaf int) (float64, float64) {
	n := len(vals)
	for k := range leftCnt {
		leftCnt[k] = 0
		rightCnt[k] = 0
	}
	fn := 0.0
	for i, c := range labels {
		rightCnt[c] += weights[i]
		fn += weights[i]
	}
	leftSq, rightSq := 0.0, 0.0
	for _, c := range rightCnt {
		rightSq += c * c
	}
	fmin := float64(minLeaf)
	nl := 0.0
	bestThr, bestGain := 0.0, math.Inf(-1)
	for pos := 1; pos < n; pos++ {
		cls, w := labels[pos-1], weights[pos-1]
		leftSq += w * (2*leftCnt[cls] + w)
		rightSq += w * (w - 2*rightCnt[cls])
		leftCnt[cls] += w
		rightCnt[cls] -= w
		nl += w
		nr := fn - nl
		v0, v1 := vals[pos-1], vals[pos]
		if v0 == v1 || nl < fmin || nr < fmin {
			continue
		}
		giniL := 1 - leftSq/(nl*nl)
		giniR := 1 - rightSq/(nr*nr)
		gain := parentImp - (nl/fn)*giniL - (nr/fn)*giniR
		if gain > bestGain {
			bestGain = gain
			bestThr = v0 + (v1-v0)/2
		}
	}
	return bestThr, bestGain
}

// identity is the order [0, n).
func identity(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

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
	if _, gain := scanReg(vals, ys, ones(6), 1); !math.IsInf(gain, -1) {
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
		wantThr, wantGain = scanReg(ev, ey, ones(len(ev)), minLeaf)
		thr, gain = scanReg(vals, ys, weights, minLeaf)
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
	if thr, gain := scanReg(edge, []float64{5, 0, 0}, edgeWeights, 3); thr != 1.5 || math.IsInf(gain, -1) {
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
	thr, gain = scanReg(vals, ys, ones(6), 3)
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

// exactScanReg is the exact-formula regression scan the proxy replaced:
// per admissible boundary, the weighted variance reduction from both sides'
// sums, six divisions and two clamps. It referees regressionCut.
func exactScanReg(vals, ys, weights []float64, parentImp float64, minLeaf int) (float64, float64) {
	var fn, sumL, sqL, sumR, sqR float64
	for i, y := range ys {
		fn += weights[i]
		sumR += weights[i] * y
		sqR += weights[i] * (y * y)
	}
	fmin := float64(minLeaf)
	nl := 0.0
	bestThr, bestGain := 0.0, math.Inf(-1)
	for pos := 1; pos < len(vals); pos++ {
		w, y := weights[pos-1], ys[pos-1]
		sumL += w * y
		sqL += w * (y * y)
		sumR -= w * y
		sqR -= w * (y * y)
		nl += w
		nr := fn - nl
		v0, v1 := vals[pos-1], vals[pos]
		if v0 == v1 || nl < fmin || nr < fmin {
			continue
		}
		varL := max(sqL/nl-(sumL/nl)*(sumL/nl), 0)
		varR := max(sqR/nr-(sumR/nr)*(sumR/nr), 0)
		if gain := parentImp - (nl/fn)*varL - (nr/fn)*varR; gain > bestGain {
			bestThr, bestGain = v0+(v1-v0)/2, gain
		}
	}
	return bestThr, bestGain
}

// TestProxyMatchesExactGain: on a tie-free fixture, CART's proxy picks the
// boundary the exact variance reduction picks — per feature and across the
// node's features — and the winner's exact gain, computed once from the
// sums the proxy kept, equals the exact scan's within 1e-12 relative. Nodes
// are random row subsets of several sizes with bootstrap-like multiplicities.
func TestProxyMatchesExactGain(t *testing.T) {
	const n, d = 400, 10
	rng := rand.New(rand.NewSource(17))
	x := make([]float64, n*d)
	y, w := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x[i*d+j] = rng.Float64() // continuous draws: ties have measure zero
		}
		y[i] = 5 + 2*x[i*d] - x[i*d+3]*x[i*d+4] + 0.2*rng.NormFloat64()
		w[i] = float64(1 + rng.Intn(3))
	}
	centre(y) // as the kernel's targets are
	col := make([]float64, n)
	vals, tys, tws := make([]float64, n), make([]float64, n), make([]float64, n)
	for trial := 0; trial < 60; trial++ {
		size := 8 + rng.Intn(n-8)
		node := make([]int32, size)
		for i, r := range rng.Perm(n)[:size] {
			node[i] = int32(r)
		}
		nt := totalsOf(gatherAt(y, node), gatherAt(w, node))
		minLeaf := 1 + trial%4
		proxyFeat, exactFeat := -1, -1
		var proxyBest cut
		proxyBest.score = math.Inf(-1)
		exactThr, exactGain := 0.0, math.Inf(-1)
		for j := 0; j < d; j++ {
			for r := 0; r < n; r++ {
				col[r] = x[r*d+j]
			}
			ord := append([]int32(nil), node...)
			sortOrder(col, ord)
			for i, r := range ord {
				vals[i], tys[i], tws[i] = col[r], y[r], w[r]
			}
			c := regressionCut(col, ord, y, w, &nt, minLeaf)
			thr, gain := exactScanReg(vals[:size], tys[:size], tws[:size], nt.imp, minLeaf)
			if c.thr != thr || math.IsInf(c.score, -1) != math.IsInf(gain, -1) {
				t.Fatalf("trial %d feature %d: proxy threshold %v, exact %v", trial, j, c.thr, thr)
			}
			if c.score > proxyBest.score {
				proxyFeat, proxyBest = j, c
			}
			if gain > exactGain {
				exactFeat, exactThr, exactGain = j, thr, gain
			}
		}
		if proxyFeat != exactFeat || proxyBest.thr != exactThr {
			t.Fatalf("trial %d: proxy picks (%d, %v), exact (%d, %v)", trial, proxyFeat, proxyBest.thr, exactFeat, exactThr)
		}
		if g := varianceGain(proxyBest, &nt); math.Abs(g-exactGain) > 1e-12*math.Abs(exactGain) {
			t.Fatalf("trial %d: exact gain from the kept sums %v, exact scan %v", trial, g, exactGain)
		}
	}
}

// gatherAt returns xs at the given indices.
func gatherAt(xs []float64, idx []int32) []float64 {
	out := make([]float64, len(idx))
	for i, r := range idx {
		out[i] = xs[r]
	}
	return out
}

// groupingFixture is a dataset whose two-valued columns fall into a known
// grouping, with its expected group sizes. Column 0 is continuous and every
// target draws on it and on the first two-valued column.
type groupingFixture struct {
	name  string
	ds    *Dataset
	sizes []int
}

// groupingFixtures covers every way groupTwo places a column: a complete
// one-hot (every row high in one indicator), an incomplete one (a third of
// the rows high in none), overlapping indicators that must land in
// different groups (u < 0.4 and u < 0.7; u ≥ 0.7 then joins the first, the
// first group it is disjoint from), a lone two-valued column, a one-hot of
// 256 levels that fills a group to the 254-member cap and starts another,
// and the mixed design of twoValuedFixture, whose expected sizes are nil:
// they are whatever its sparse random columns happen to give.
func groupingFixtures(task Task) []groupingFixture {
	build := func(n, d int, seed int64, fill func(rng *rand.Rand, i int, row []float64)) *Dataset {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n*d)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			row := x[i*d : (i+1)*d]
			row[0] = rng.NormFloat64()
			fill(rng, i, row[1:])
			s := row[0] + 1.5*row[1] + 0.2*rng.NormFloat64()
			if task == Classification {
				y[i] = float64(int(math.Abs(s)*2) % 3)
			} else {
				y[i] = s
			}
		}
		return mustDataset(x, n, d, y, task, 3)
	}
	return []groupingFixture{
		{"complete one-hot", build(300, 7, 51, func(rng *rand.Rand, _ int, row []float64) {
			row[rng.Intn(6)] = 1
		}), []int{6}},
		{"incomplete one-hot", build(300, 7, 52, func(rng *rand.Rand, _ int, row []float64) {
			if rng.Float64() < 2.0/3 {
				row[rng.Intn(6)] = 1
			}
		}), []int{6}},
		{"overlapping", build(300, 4, 53, func(rng *rand.Rand, _ int, row []float64) {
			u := rng.Float64()
			row[0] = b2f(u < 0.4)
			row[1] = b2f(u < 0.7)
			row[2] = b2f(u >= 0.7)
		}), []int{2, 1}},
		{"lone", build(300, 3, 54, func(rng *rand.Rand, _ int, row []float64) {
			row[0] = -3.5
			if rng.Float64() < 0.5 {
				row[0] = 7.25
			}
			row[1] = rng.Float64()
		}), []int{1}},
		{"cap", build(600, 257, 55, func(_ *rand.Rand, i int, row []float64) {
			row[i%256] = 1
		}), []int{maxGroup, 256 - maxGroup}},
		{"mixed", twoValuedFixture(300, 24, task, 41), nil}, // chance decides how its sparse columns group
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// maskCut is the per-column pass the groups replaced: it lists the node's
// high units through the column's mask, in the order of units, and sums
// their terms. It referees the grouped regression cut bit-for-bit.
func maskCut(b *treeBuilder, sc *SplitColumn, units []int32, nt *nodeTotals) cut {
	var nh, sh, qh float64
	for _, p := range units {
		if sc.mask[b.rowOf[p]] == 1 {
			w, y := b.ws.wt[p], b.ws.ys[p]
			nh += w
			sh += w * y
			qh += w * (y * y)
		}
	}
	nl, fmin := nt.n-nh, float64(b.cfg.MinLeaf)
	if nl < fmin || nh < fmin {
		return noCut
	}
	c := cut{thr: sc.lo + (sc.hi-sc.lo)/2, n: nl, sum: nt.sum - sh, sq: nt.sq - qh}
	c.score = c.sum*c.sum/nl + sh*sh/nh
	return c
}

// TestTwoValuedCutMatchesScan: the grouped cut — a column's slot of its
// group's block, summed by whichever member a node draws first — scores a
// two-valued column as scanning its materialised sequence does (the node's
// units holding lo, then those holding hi, each with its value, label or
// target, and multiplicity): bit-equal for classification, whose counts are
// exact integers; for regression bit-equal to the per-column mask pass and,
// against the scan, the same threshold, the proxy within 1e-12 relative and
// the exact gain within 1e-12 of the node's variance. Every grouping of
// groupingFixtures is checked, over a bootstrap's units (multiplicities up to
// several) and random subsets of them, some too small for every minLeaf, with
// the members visited in a fresh random order per node.
func TestTwoValuedCutMatchesScan(t *testing.T) {
	for _, task := range []Task{Classification, Regression} {
		for _, fx := range groupingFixtures(task) {
			ss := buildSplitSet(fx.ds, 1, false)
			if got := groupSizes(ss.groups); fx.sizes != nil && !slices.Equal(got, fx.sizes) {
				t.Fatalf("%v %s: group sizes %v, want %v", task, fx.name, got, fx.sizes)
			}
			rng := rand.New(rand.NewSource(43))
			ws := &treeWorkspace{}
			drawBootstrap(ws, ss.n, rng)
			checked := 0
			for trial := 0; trial < 40; trial++ {
				b := &treeBuilder{}
				b.initUnits(ss, TreeConfig{MinLeaf: 1 + trial%5}, rng, ws)
				b.scols = ss.cols
				node := make([]int32, b.units)
				for i := range node {
					node[i] = int32(i)
				}
				if trial > 0 {
					rng.Shuffle(len(node), func(i, j int) { node[i], node[j] = node[j], node[i] })
					node = node[:1+rng.Intn(len(node))]
				}
				inNode := make([]bool, b.units)
				for _, u := range node {
					inNode[u] = true
				}
				nt, _ := b.nodeStats(node)
				b.stamp++
				for _, feat := range rng.Perm(ss.d) {
					sc := &ss.cols[feat]
					if sc.mask == nil {
						continue
					}
					got := b.twoValuedCut(feat, node, &nt)
					// The column's sequence over the node: lows, then highs, each
					// side in ascending unit order.
					var ord []int32
					for _, side := range []uint8{0, 1} {
						for u := int32(0); u < int32(b.units); u++ {
							if inNode[u] && sc.mask[b.rowOf[u]] == side {
								ord = append(ord, u)
							}
						}
					}
					vals := make([]float64, b.units)
					for _, u := range ord {
						vals[u] = sc.v[b.rowOf[u]]
					}
					if task == Classification {
						sv, sl, sw := gatherAt(vals, ord), make([]int32, len(ord)), gatherAt(ws.wt, ord)
						for i, u := range ord {
							sl[i] = ws.labels[u]
						}
						thr, gain := scanSplitsClass(sv, sl, sw, make([]float64, b.classes), make([]float64, b.classes), nt.imp, b.cfg.MinLeaf)
						if math.IsInf(gain, -1) {
							thr = got.thr // no boundary: only the score is defined
						}
						if got.thr != thr || got.score != gain {
							t.Fatalf("%s trial %d feature %d: grouped cut (%v, %v), scan (%v, %v)", fx.name, trial, feat, got.thr, got.score, thr, gain)
						}
					} else {
						if want := maskCut(b, sc, node, &nt); got != want {
							t.Fatalf("%s trial %d feature %d: grouped cut %+v, mask pass %+v", fx.name, trial, feat, got, want)
						}
						want := regressionCut(vals, ord, ws.ys, ws.wt, &nt, b.cfg.MinLeaf)
						if math.IsInf(want.score, -1) || math.IsInf(got.score, -1) {
							if math.IsInf(want.score, -1) != math.IsInf(got.score, -1) {
								t.Fatalf("%s trial %d feature %d: grouped cut score %v, scan %v", fx.name, trial, feat, got.score, want.score)
							}
							continue
						}
						// The gain is a difference of terms of the node's variance, so
						// that is the scale its rounding is relative to.
						near := func(a, b, scale float64) bool { return math.Abs(a-b) <= 1e-12*scale }
						if got.thr != want.thr || !near(got.score, want.score, math.Abs(want.score)) ||
							!near(varianceGain(got, &nt), varianceGain(want, &nt), nt.imp) {
							t.Fatalf("%s trial %d feature %d: grouped cut %+v, scan %+v", fx.name, trial, feat, got, want)
						}
					}
					if !math.IsInf(got.score, -1) {
						checked++
					}
				}
			}
			if checked < 20 {
				t.Fatalf("%v %s: only %d admissible columns checked", task, fx.name, checked)
			}
		}
	}
}

// groupSizes lists the groups' member counts.
func groupSizes(groups []twoGroup) []int {
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, g.size)
	}
	return sizes
}

// TestGroupTwo: groupTwo's groups are pairwise disjoint — a row's code names
// exactly the member high on it — every two-valued column is in exactly one
// group and nothing else is in any, no group exceeds maxGroup, the masks are
// left as they were, and the grouping is the greedy first fit in column
// order: replayed column by column, each joins the first group that was open
// to it, so the same columns in the same order always group alike.
func TestGroupTwo(t *testing.T) {
	for _, fx := range groupingFixtures(Regression) {
		cols := buildSplitSet(fx.ds, 1, false).cols
		groups, twoOf := groupTwo(cols)
		members := make([][]int, len(groups)) // column per slot-1, in slot order
		for j, c := range cols {
			if c.mask == nil {
				continue
			}
			ref := twoOf[j]
			g := groups[ref.group]
			if int(ref.slot) != len(members[ref.group])+1 {
				t.Fatalf("%s: column %d has slot %d in group %d, want %d", fx.name, j, ref.slot, ref.group, len(members[ref.group])+1)
			}
			members[ref.group] = append(members[ref.group], j)
			// The first fit: every earlier group was full or clashed with a
			// member placed before column j.
			for e := int32(0); e < ref.group; e++ {
				open := len(members[e]) < maxGroup
				for _, k := range members[e] {
					open = open && disjoint(cols[k].mask, c.mask)
				}
				if open {
					t.Fatalf("%s: column %d went to group %d, but group %d was open to it", fx.name, j, ref.group, e)
				}
			}
			for r, h := range c.mask {
				if h != b2f8(c.v[r] == c.hi) {
					t.Fatalf("%s: column %d's mask changed at row %d", fx.name, j, r)
				}
				if (g.code[r] == uint8(ref.slot)) != (h == 1) {
					t.Fatalf("%s: row %d code %d, column %d (slot %d) mask %d", fx.name, r, g.code[r], j, ref.slot, h)
				}
			}
		}
		for gi, g := range groups {
			if g.size != len(members[gi]) || g.size > maxGroup {
				t.Fatalf("%s: group %d has size %d and %d members (cap %d)", fx.name, gi, g.size, len(members[gi]), maxGroup)
			}
			for r, code := range g.code {
				if int(code) > g.size {
					t.Fatalf("%s: group %d row %d code %d beyond its %d members", fx.name, gi, r, code, g.size)
				}
			}
		}
		again, twoAgain := groupTwo(cols)
		if !slices.Equal(twoOf, twoAgain) || !slices.Equal(groupSizes(again), groupSizes(groups)) {
			t.Fatalf("%s: grouping the same columns twice differs", fx.name)
		}
	}
	if groups, twoOf := groupTwo(PresortColumns(kernelFixture(50, 4, Regression, 3), 1)); groups != nil || twoOf != nil {
		t.Fatalf("no two-valued column: %d groups, twoOf %v", len(groups), twoOf)
	}
}

func b2f8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

package ml

import (
	"math"
	"math/bits"
	"math/rand"
)

// TreeConfig controls CART decision-tree growth.
type TreeConfig struct {
	// MaxDepth bounds tree depth; <= 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MTry is the number of features considered per split; <= 0 means all.
	// Random forests set sqrt(d) for classification and d/3 for regression.
	MTry int
}

// A tree's samples are units: the distinct rows a bootstrap drew, in
// ascending row order, each weighted by its multiplicity w (FitTree: one unit
// of weight 1 per index entry). Every per-sample loop — order derivation,
// partitions, node sums, scans — walks units, and a node's sample count m is
// its units' Σw: MinLeaf, the importance weight, the leaf mean and the regime
// rule all count samples, so a tree over units is the tree over the expanded
// copies. Class counts add w exactly, so classification trees are
// bit-identical to the expanded kernel's; regression sums add w·y and w·(y·y)
// once per unit, a different float order from adding y w times. Regression
// targets are centred once, by the training mean (a forest's split set, or
// FitTree's samples), and the mean is added back at the leaves: the sums then
// stay near zero, where Σw·y² − (Σw·y)²/Σw keeps the variance of targets far
// from it.
//
// The split kernel has two regimes, chosen per subtree by counts only — the
// node's samples m, the feature count d and the resolved mtry, never data
// values or scheduling — so the choice is deterministic:
//
//   - presorted: every feature's (value, unit) order is derived once per
//     tree, linearly, from the forest's shared split set (or sorted once, for
//     a lone FitTree) and stably partitioned down the tree, so nodes never
//     sort. Each split pays O(d·u) to repartition the orders of its u units.
//   - flat: a node gathers each candidate feature's values into flat scratch
//     and sorts them with a specialized (float64 key, int32 payload)
//     introsort. Each split pays O(mtry·u·log u) with tiny constants and no
//     d-factor.
//
// Flat wins exactly when mtry·⌈log₂ m⌉ < d: useFlatKernel is that rule and
// nothing else, and grow's hand-off, a forest's need for global orders and a
// tree's root regime all ask it with the node's sample count, so the regimes
// are those of the expanded kernel. It is monotone in m, so a subtree that
// crosses into the flat regime stays there. The boundary separates ARDA's
// forest shapes: classification selection forests on a coreset (mtry = √d,
// d in the hundreds) are flat at every m; regression forests (mtry = d/3)
// stay presorted down to m ≈ 4, whatever n is; an evaluation forest over
// thousands of rows and √d of ~100 columns starts presorted and hands off
// where ⌈log₂ m⌉ drops below d/mtry. No node size overrides the rule and no
// constant weights it: with the sort side counted twice the benchmark measured
// the same, and counted four times the wide classification run lost a quarter.
//
// Every candidate is scored from sums against the node's totals, which
// nodeStats computes once per node. A two-valued column (SplitColumn.mask;
// every one-hot column) has one admissible boundary and needs no order: one
// pass over the node's units, in any order, adds up its high side — class
// counts, or Σw, Σw·y, Σw·(y·y) — and the low side is the node total minus
// that. An ordered column is swept in (value, unit) order: classification
// through scanSplitsClass's incremental Gini, regression by regressionCut,
// which reads values, targets and weights through the order in place and
// maximises CART's proxy sumL²/nL + sumR²/nR (sumR and nR from the node
// totals) — the exact variance reduction is computed once per node, for the
// winner, from its kept left-side sums. Class counts are exact integers, so
// the two-valued pass scores a classification split bit-identically to
// scanning the column's (lows, then highs) sequence.

// useFlatKernel reports whether the flat kernel is the cheaper regime for a
// (sub)tree of m samples with the given resolved mtry. A tree without
// features or without samples has no order to keep and is flat (flatRoot
// builds the empty tree's lone leaf); m = 1 is flat by the rule itself.
func useFlatKernel(mtry, d, m int) bool {
	if d == 0 || m <= 1 {
		return true
	}
	return mtry*bits.Len(uint(m-1)) < d
}

// treeNode is one node of a fitted CART tree. Leaves have feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	left, right int32
	value       float64 // prediction: majority class or mean target
}

// Tree is a fitted CART decision tree.
type Tree struct {
	nodes []treeNode
	// importance accumulates the total weighted impurity decrease per
	// feature over the tree's splits.
	importance []float64
}

// Predict returns the tree's prediction for feature vector x.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Importance returns the per-feature total impurity decrease (unnormalized).
// The returned slice is a copy; mutating it cannot corrupt the fitted tree.
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	copy(out, t.importance)
	return out
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// treeBuilder grows one tree. Sample identity is a tree-local unit
// u ∈ [0, units) of weight ws.wt[u]. Feature values live in per-feature
// split columns: the tree's own gathered columns (length units, indexed by
// unit) or the forest's shared split-set columns (length n) addressed
// through the unit→row map rowOf; rowsOf says which a given feature is.
type treeBuilder struct {
	cfg      TreeConfig
	rng      *rand.Rand
	tree     *Tree
	task     Task
	classes  int
	units, d int // units: the root's unit count, and the order planes' stride
	mtry     int
	ws       *treeWorkspace

	scols []SplitColumn // per-feature values (+ global orders when shared)
	rowOf []int32       // unit → row of a shared column; nil without shared columns
	// copied marks a presorted tree over a shared split set: its ordered
	// columns are per-tree copies indexed by unit, and only two-valued
	// columns are read in place through rowOf.
	copied bool
	planes int // order planes in ws.orders: d, plus the unit plane when copied
	ssn    int // shared split-set row count (scan cost rule)
	// canScan marks the shared-column flat path of a classification tree,
	// where units are rows in ascending order: large nodes then extract their
	// sorted (value, label, multiplicity) sequence from a column's global
	// order instead of sorting.
	canScan bool
	ymean   float64 // the mean the regression targets ws.ys were centred by
}

// FitTree grows a CART tree over the samples indexed by idx (all samples if
// idx is nil; duplicate indices are allowed and count with multiplicity).
// Each index entry is one unit of weight 1. rng is only used when cfg.MTry
// restricts the feature set.
func FitTree(ds *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	m := ds.N
	if idx != nil {
		m = len(idx)
	}
	ws := treeScratch.Get()
	b := &treeBuilder{
		cfg:     cfg,
		rng:     rng,
		tree:    &Tree{importance: make([]float64, ds.D)},
		task:    ds.Task,
		classes: ds.Classes,
		units:   m,
		d:       ds.D,
		ws:      ws,
	}
	b.mtry = resolveMTry(cfg.MTry, ds.D)
	ws.reserve(m, ds.D, b.classScratch())
	ws.reserveCols(m, ds.D)
	ws.reserveColHeaders(ds.D)
	for j := 0; j < ds.D; j++ {
		ws.scols[j] = SplitColumn{v: ws.colv[j*m : (j+1)*m]}
	}
	b.scols = ws.scols
	rbuf := ws.rbuf
	for p := 0; p < m; p++ {
		i := p
		if idx != nil {
			i = idx[p]
		}
		ws.ys[p] = ds.Y[i]
		ws.wt[p] = 1
		if b.task == Classification {
			ws.labels[p] = int32(ds.Label(i))
		}
		ds.RowTo(i, rbuf)
		for j := 0; j < ds.D; j++ {
			ws.colv[j*m+p] = rbuf[j]
		}
	}
	if b.task == Regression {
		b.ymean = centre(ws.ys[:m])
	}
	if !useFlatKernel(b.mtry, ds.D, m) {
		b.planes = ds.D
		ws.reserveOrders(m, ds.D)
		for j := 0; j < ds.D; j++ {
			col := ws.colv[j*m : (j+1)*m]
			ord := ws.orders[j*m : (j+1)*m]
			for p := range ord {
				ord[p] = int32(p)
			}
			sortOrder(col, ord)
		}
		b.grow(0, m, 0)
	} else {
		b.flatRoot()
	}
	treeScratch.Put(ws)
	return b.tree
}

// centre subtracts the mean of ys from each entry in place and returns the
// mean (0 for no entries).
func centre(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for i := range ys {
		ys[i] -= mean
	}
	return mean
}

// classScratch is the class-count scratch size (0 for regression).
func (b *treeBuilder) classScratch() int {
	if b.task == Classification {
		return b.classes
	}
	return 0
}

// flatRoot grows the whole tree with the flat kernel (a lone leaf when
// there are no samples, mirroring the original kernel's degenerate output).
func (b *treeBuilder) flatRoot() {
	if b.units == 0 {
		v := math.NaN()
		if b.task == Classification {
			v = 0
		}
		b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: v})
		return
	}
	s := b.ws.samples[:b.units]
	for i := range s {
		s[i] = int32(i)
	}
	b.growFlat(s, 0)
}

// rowsOf returns the unit→row map feature feat's column is read through,
// nil when the column is indexed by unit.
func (b *treeBuilder) rowsOf(feat int) []int32 {
	if b.copied && b.scols[feat].mask == nil {
		return nil
	}
	return b.rowOf
}

// nodeTotals are a node's sums, computed once per node by nodeStats: its
// impurity (Gini or variance), its sample count Σw and, for regression, Σw·y
// and Σw·(y·y) over its centred targets. A classification node's class counts
// are in ws.tcnt.
type nodeTotals struct {
	imp, n, sum, sq float64
}

// cut is one candidate split of a node: its threshold and its score — the
// Gini gain for classification; CART's proxy sumL²/nL + sumR²/nR for
// regression, which orders a node's candidates as the variance reduction does
// — and, for regression, the left side's Σw, Σw·y and Σw·(y·y), from which
// varianceGain computes the winner's exact reduction. A cut scoring -Inf has no
// admissible boundary.
type cut struct {
	thr, score float64
	n, sum, sq float64
}

var noCut = cut{score: math.Inf(-1)}

// varianceGain returns regression cut c's exact variance reduction over a
// node with totals nt.
func varianceGain(c cut, nt *nodeTotals) float64 {
	nr, sumR, sqR := nt.n-c.n, nt.sum-c.sum, nt.sq-c.sq
	varL := max(c.sq/c.n-(c.sum/c.n)*(c.sum/c.n), 0)
	varR := max(sqR/nr-(sumR/nr)*(sumR/nr), 0)
	return nt.imp - (c.n/nt.n)*varL - (nr/nt.n)*varR
}

// bestSplit scores MTry candidate features over the node holding units and
// returns the best (feature, threshold, impurity gain), or feature -1. A
// presorted node (flat false) reads an ordered feature's order from its plane
// at [start, start+len(units)); a flat node sorts, or — classification, with
// counts non-nil — extracts by counting scan. The feats permutation persists
// across nodes of one tree, exactly like the original kernel's partial
// Fisher-Yates state.
func (b *treeBuilder) bestSplit(units []int32, nt *nodeTotals, flat bool, start int, counts []int32) (int, float64, float64) {
	mtry := b.shuffleFeats()
	ws := b.ws
	end := start + len(units)
	bestFeat, best := -1, noCut
	for _, feat := range ws.feats[:mtry] {
		sc := &b.scols[feat]
		var c cut
		switch {
		case sc.mask != nil:
			c = b.twoValuedCut(sc, units, nt)
		case b.task == Classification:
			var ord []int32
			if !flat {
				ord = ws.orders[feat*b.units+start : feat*b.units+end]
			}
			c = b.classCut(feat, units, ord, counts, nt.imp)
		case flat:
			c = noCut
			if col, ord, ok := b.flatOrder(units, feat); ok {
				c = regressionCut(col, ord, ws.ys, ws.wt, nt, b.cfg.MinLeaf)
			}
		default:
			c = regressionCut(sc.v, ws.orders[feat*b.units+start:feat*b.units+end], ws.ys, ws.wt, nt, b.cfg.MinLeaf)
		}
		if c.score > best.score {
			bestFeat, best = feat, c
		}
	}
	if bestFeat < 0 {
		return -1, 0, 0
	}
	if b.task == Classification {
		return bestFeat, best.thr, best.score
	}
	return bestFeat, best.thr, varianceGain(best, nt)
}

// twoValuedCut scores a two-valued column's one boundary over the node
// holding units. One branch-free pass through the column's mask lists the
// units on its high side, in the order of units, and the sums run over that
// list alone; the low side is the node's total minus them. Class counts are
// exact integers, so the gain is bit-equal to scanSplitsClass's at that
// boundary.
func (b *treeBuilder) twoValuedCut(sc *SplitColumn, units []int32, nt *nodeTotals) cut {
	ws := b.ws
	mask, ro, wt := sc.mask, b.rowOf, ws.wt
	highs := ws.pay[:len(units)]
	k := 0
	for _, p := range units {
		highs[k] = p
		k += int(mask[ro[p]])
	}
	highs = highs[:k]
	fmin := float64(b.cfg.MinLeaf)
	c := cut{thr: sc.lo + (sc.hi-sc.lo)/2}
	if b.task == Classification {
		hcnt, labels := ws.rcnt, ws.labels
		clear(hcnt)
		nh := 0.0
		for _, p := range highs {
			w := wt[p]
			hcnt[labels[p]] += w
			nh += w
		}
		nl := nt.n - nh
		if nl < fmin || nh < fmin {
			return noCut
		}
		leftSq, rightSq := 0.0, 0.0
		for cls, h := range hcnt {
			l := ws.tcnt[cls] - h
			leftSq += l * l
			rightSq += h * h
		}
		giniL := 1 - leftSq/(nl*nl)
		giniR := 1 - rightSq/(nh*nh)
		c.score = nt.imp - (nl/nt.n)*giniL - (nh/nt.n)*giniR
		return c
	}
	ys := ws.ys
	var nh, sh, qh float64
	for _, p := range highs {
		w, y := wt[p], ys[p]
		nh += w
		sh += w * y
		qh += w * (y * y)
	}
	nl := nt.n - nh
	if nl < fmin || nh < fmin {
		return noCut
	}
	c.n, c.sum, c.sq = nl, nt.sum-sh, nt.sq-qh
	c.score = c.sum*c.sum/nl + sh*sh/nh
	return c
}

// classCut scores an ordered feature of a classification node: it fills
// (vbuf, lbuf, wbuf) with the feature's ascending (value, label,
// multiplicity) sequence — read through ord, the feature's order-plane range,
// over a presorted node; over a flat node (ord nil) by counting scan where
// that is cheaper (counts non-nil) and the feature carries a global order,
// and by sorting otherwise — and sweeps it with scanSplitsClass.
func (b *treeBuilder) classCut(feat int, units, ord, counts []int32, parentImp float64) cut {
	ws := b.ws
	u := len(units)
	vbuf, lbuf, wbuf := ws.vbuf[:u], ws.lbuf[:u], ws.wbuf[:u]
	switch {
	case ord != nil:
		col := b.scols[feat].v
		for i, p := range ord {
			vbuf[i] = col[p]
			lbuf[i] = ws.labels[p]
			wbuf[i] = ws.wt[p]
		}
	case counts != nil && b.scanVals(feat, counts, vbuf, lbuf, wbuf):
		// the counting scan filled all three
	default:
		pay := ws.pay[:u]
		b.sortedPairs(units, feat, vbuf, pay)
		for i, p := range pay {
			lbuf[i] = ws.labels[p]
			wbuf[i] = ws.wt[p]
		}
	}
	if vbuf[0] == vbuf[u-1] {
		return noCut // constant feature in this node: no split exists
	}
	thr, gain := scanSplitsClass(vbuf, lbuf, wbuf, ws.lcnt, ws.rcnt, parentImp, b.cfg.MinLeaf)
	return cut{thr: thr, score: gain}
}

// flatOrder sorts a flat regression node's units by ordered feature feat and
// returns the feature's values indexed by unit with that (value, unit) order
// — a column read through rowOf is scattered into ws.uval first — or false
// when the feature is constant over the node.
func (b *treeBuilder) flatOrder(units []int32, feat int) ([]float64, []int32, bool) {
	u := len(units)
	vbuf, ord := b.ws.vbuf[:u], b.ws.pay[:u]
	b.sortedPairs(units, feat, vbuf, ord)
	if vbuf[0] == vbuf[u-1] {
		return nil, nil, false
	}
	col := b.scols[feat].v
	if b.rowsOf(feat) != nil {
		col = b.ws.uval
		for i, p := range ord {
			col[p] = vbuf[i]
		}
	}
	return col, ord, true
}

// ---- presorted kernel ----

// nodeUnits returns the units of the presorted node range [start, end), in
// the order its sums run: the unit plane's range when the tree keeps one (a
// two-valued column has no plane of its own), feature 0's otherwise.
func (b *treeBuilder) nodeUnits(start, end int) []int32 {
	plane := 0
	if b.copied {
		plane = b.d
	}
	return b.ws.orders[plane*b.units+start : plane*b.units+end]
}

// grow recursively builds the subtree over units [start, end) of every
// order plane and returns its node index. A subtree the cost rule calls flat
// hands off to the flat kernel with its units in nodeUnits' order — the one
// its node statistics were summed in — after which the planes' ranges are
// simply abandoned.
func (b *treeBuilder) grow(start, end, depth int) int32 {
	units := b.nodeUnits(start, end)
	nt, value := b.nodeStats(units)
	m := int(nt.n)
	if useFlatKernel(b.mtry, b.d, m) {
		s := b.ws.samples[start:end]
		copy(s, units)
		return b.growFlat(s, depth)
	}
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: value})
	if nt.imp <= 1e-12 || m < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return id
	}
	// Zero-gain splits are allowed (impurity gain is non-negative for
	// concave criteria, and e.g. XOR's first split has exactly zero gain).
	feat, thr, gain := b.bestSplit(units, &nt, false, start, nil)
	if feat < 0 || gain < 0 {
		return id
	}
	nl := b.partition(feat, thr, start, end)
	if nl == 0 || nl == end-start {
		// Threshold rounding put every sample on one side (midpoints of
		// adjacent floats can round onto an endpoint); keep the leaf so
		// Predict's `<= threshold` walk always agrees with training.
		return id
	}
	b.tree.importance[feat] += gain * float64(m)
	left := b.grow(start, start+nl, depth+1)
	right := b.grow(start+nl, end, depth+1)
	nd := &b.tree.nodes[id]
	nd.feature = feat
	nd.threshold = thr
	nd.left = left
	nd.right = right
	return id
}

// resolveMTry applies TreeConfig.MTry's defaulting rule.
func resolveMTry(mtry, d int) int {
	if mtry <= 0 || mtry > d {
		return d
	}
	return mtry
}

// shuffleFeats runs the partial Fisher-Yates draw of candidate features
// into ws.feats, returning mtry.
func (b *treeBuilder) shuffleFeats() int {
	d := b.d
	mtry := b.mtry
	feats := b.ws.feats
	if mtry < d {
		// Partial Fisher-Yates: draw mtry distinct features.
		for j := 0; j < mtry; j++ {
			k := j + b.rng.Intn(d-j)
			feats[j], feats[k] = feats[k], feats[j]
		}
	}
	return mtry
}

// partition splits [start, end) around `feat <= thr`: the goes-left mask
// comes from the split feature — its order is value-sorted, so the left size
// falls out of a binary search; a two-valued feature's byte mask says it
// outright — and every other plane's range is stably compacted around the
// mask, keeping both child ranges sorted without resorting. The compaction
// writes both destinations unconditionally and advances them by the mask
// byte: which side an element goes to is a coin flip no branch predictor
// wins. Returns the left child's unit count (0 or end-start means the split
// is void and the caller must keep the leaf).
func (b *treeBuilder) partition(feat int, thr float64, start, end int) int {
	ws := b.ws
	mt := b.units
	left := ws.left
	var lefts []int32 // the units whose left byte is set, to clear it again
	if sc := &b.scols[feat]; sc.mask != nil {
		if sc.hi <= thr {
			return end - start
		}
		pos := ws.orders[b.d*mt+start : b.d*mt+end]
		mask, ro := sc.mask, b.rowOf
		nl := 0
		for _, p := range pos {
			l := 1 - mask[ro[p]]
			left[p] = l
			nl += int(l)
		}
		lefts = pos[:nl] // once the unit plane itself is partitioned
	} else {
		col := sc.v
		ord := ws.orders[feat*mt+start : feat*mt+end]
		lo, hi := 0, len(ord)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if col[ord[mid]] <= thr {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 || lo == len(ord) {
			return lo
		}
		lefts = ord[:lo]
		for _, p := range lefts {
			left[p] = 1
		}
	}
	spill := ws.spill
	for j := 0; j < b.planes; j++ {
		if j == feat || (j < b.d && b.scols[j].mask != nil) {
			continue // its own order already has the left side first; two-valued columns have none
		}
		seg := ws.orders[j*mt+start : j*mt+end]
		w, r := 0, 0
		for _, p := range seg {
			l := int(left[p])
			seg[w], spill[r] = p, p
			w += l
			r += 1 - l
		}
		copy(seg[w:], spill[:r])
	}
	// Restore the all-zero mask invariant for the next split.
	for _, p := range lefts {
		left[p] = 0
	}
	return len(lefts)
}

// ---- flat kernel ----

// growFlat recursively builds the subtree over the given units, sorting
// each candidate feature's node values into flat scratch per split.
func (b *treeBuilder) growFlat(samples []int32, depth int) int32 {
	nt, value := b.nodeStats(samples)
	m := int(nt.n)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: value})
	if nt.imp <= 1e-12 || m < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return id
	}
	// Scan extraction beats per-node sorting only while the node is large:
	// the scan pays O(n + u) per feature regardless of node size, the sort
	// pays O(u·log u) on the node's u units alone — but a sort comparison
	// (call, float compare, ~50% mispredicted branch) costs several times a
	// scan step (sequential loads, predictable branches), hence the 2× weight
	// on the sort side. Either kernel yields identical pairs, so the crossover
	// only affects speed; the rule depends only on unit counts, keeping the
	// choice deterministic. Interior nodes register membership as per-row
	// multiplicities in ncnt (cleared right after the split search,
	// restoring the all-zero invariant); the root's are the bootstrap's own.
	u := len(samples)
	var counts []int32 // in-node multiplicity per row when scanning, else nil
	if b.canScan && 2*u*bits.Len(uint(u-1)) > b.ssn+u {
		counts = b.ws.cnt
		if u != b.units {
			counts = b.ws.ncnt
			for _, p := range samples {
				r := b.rowOf[p]
				counts[r] = b.ws.cnt[r]
			}
		}
	}
	feat, thr, gain := b.bestSplit(samples, &nt, true, 0, counts)
	if counts != nil && u != b.units {
		for _, p := range samples {
			counts[b.rowOf[p]] = 0
		}
	}
	if feat < 0 || gain < 0 {
		return id
	}
	nl := b.partitionFlat(samples, feat, thr)
	if nl == 0 || nl == u {
		return id
	}
	b.tree.importance[feat] += gain * float64(m)
	left := b.growFlat(samples[:nl], depth+1)
	right := b.growFlat(samples[nl:], depth+1)
	nd := &b.tree.nodes[id]
	nd.feature = feat
	nd.threshold = thr
	nd.left = left
	nd.right = right
	return id
}

// nodeStats returns the totals and the prediction (majority class, or mean
// target with the centring mean added back) of the node holding the given
// units, summing in their order; a classification node's class counts go to
// ws.tcnt.
func (b *treeBuilder) nodeStats(samples []int32) (nodeTotals, float64) {
	ws := b.ws
	wt := ws.wt
	var t nodeTotals
	if b.task == Classification {
		cnt := ws.tcnt
		clear(cnt)
		for _, p := range samples {
			w := wt[p]
			cnt[ws.labels[p]] += w
			t.n += w
		}
		gini := 1.0
		best, bestK := -1.0, 0
		for k, c := range cnt {
			p := c / t.n
			gini -= p * p
			if c > best {
				best, bestK = c, k
			}
		}
		t.imp = gini
		return t, float64(bestK)
	}
	for _, p := range samples {
		w, y := wt[p], ws.ys[p]
		t.n += w
		t.sum += w * y
		t.sq += w * (y * y)
	}
	mean := t.sum / t.n
	t.imp = t.sq/t.n - mean*mean
	return t, mean + b.ymean
}

// sortedPairs fills (vbuf, pay) with the node's (value, unit) pairs in
// ascending (value, unit) order by gathering and sorting. Classification
// nodes eligible for counting-scan extraction use scanVals instead.
func (b *treeBuilder) sortedPairs(samples []int32, feat int, vbuf []float64, pay []int32) {
	col := b.scols[feat].v
	if ro := b.rowsOf(feat); ro != nil {
		for i, p := range samples {
			vbuf[i] = col[ro[p]]
			pay[i] = p
		}
	} else {
		for i, p := range samples {
			vbuf[i] = col[p]
			pay[i] = p
		}
	}
	sortKV(vbuf, pay)
}

// scanVals fills (vbuf, lbuf, wbuf) with the node's ascending
// (value, label, multiplicity) triples via a counting scan of the feature's
// global (value, row) order — units are the drawn rows in ascending row
// order, so walking rows in global value order and emitting each in-node row
// once produces exactly the sequence sortKV would: same comparison relation,
// unique total order, zero comparisons. The payload is the unit's label
// rather than the unit itself, and in-node membership is counts, the node's
// multiplicity per row — no per-unit mask checks. Returns false when the
// feature carries no global order (caller falls back to the sort).
func (b *treeBuilder) scanVals(feat int, counts []int32, vbuf []float64, lbuf []int32, wbuf []float64) bool {
	sc := b.scols[feat]
	if sc.ord == nil {
		return false
	}
	unitOf, labels := b.ws.unitOf, b.ws.labels
	col := sc.v
	k := 0
	for _, r := range sc.ord {
		c := counts[r]
		if c == 0 {
			continue
		}
		vbuf[k] = col[r]
		lbuf[k] = labels[unitOf[r]]
		wbuf[k] = float64(c)
		k++
	}
	return true
}

// partitionFlat partitions samples in place around `feat <= thr` and
// returns the left side's unit count.
func (b *treeBuilder) partitionFlat(samples []int32, feat int, thr float64) int {
	col := b.scols[feat].v
	ro := b.rowsOf(feat)
	lo, hi := 0, len(samples)
	for lo < hi {
		r := samples[lo]
		if ro != nil {
			r = ro[r]
		}
		if col[r] <= thr {
			lo++
		} else {
			hi--
			samples[lo], samples[hi] = samples[hi], samples[lo]
		}
	}
	return lo
}

// ---- scan loops ----

// scanSplitsClass sweeps a node's value-sorted (values, labels, weights)
// sequence for the best Gini split; each entry stands for weights[i] samples,
// and minLeaf counts samples. leftCnt/rightCnt are caller-owned class-count
// scratch. The incremental trick: moving w samples of class c from right to
// left changes Σcnt² by ±w·(2·cnt[c] ± w), so each entry updates in O(1).
// Every count is an integer, exact in float64, so the gains are bit-equal to
// those of the sequence with each entry repeated weights[i] times.
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

// regressionCut sweeps a regression node whose units in ascending
// (value, unit) order are ord — values col, centred targets ys and
// multiplicities wt, all indexed by unit and read in place — for the
// boundary maximising CART's proxy sumL²/nL + sumR²/nR, the right side taken
// from the node totals nt: two divisions per admissible boundary and no
// clamp. Each entry adds w·y and w·(y·y) once to the left sums the winner
// keeps, and minLeaf counts samples.
func regressionCut(col []float64, ord []int32, ys, wt []float64, nt *nodeTotals, minLeaf int) cut {
	fmin := float64(minLeaf)
	best := noCut
	var nl, sl, ql float64
	v0 := col[ord[0]]
	for i := 1; i < len(ord); i++ {
		p := ord[i-1]
		w, y := wt[p], ys[p]
		nl += w
		sl += w * y
		ql += w * (y * y)
		nr := nt.n - nl
		if nr < fmin {
			break // every later boundary leaves fewer on the right
		}
		v1 := col[ord[i]]
		if v0 != v1 && nl >= fmin {
			sr := nt.sum - sl
			if s := sl*sl/nl + sr*sr/nr; s > best.score {
				best = cut{thr: v0 + (v1-v0)/2, score: s, n: nl, sum: sl, sq: ql}
			}
		}
		v0 = v1
	}
	return best
}

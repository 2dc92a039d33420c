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
// partitions, node sums, histograms, scans — walks units, and a node's sample
// count m is its units' Σw: MinLeaf, the importance weight, the leaf mean and
// the regime rule all count samples, so a tree over units is the tree over
// the expanded copies. Class counts add w exactly, so classification trees
// are bit-identical to the expanded kernel's; regression sums add w·y and
// w·(y·y) once per unit, a different float order from adding y w times.
// Regression targets are centred once, by the training mean of the split
// set, and the mean is added back at the leaves: the sums then stay near
// zero, where Σw·y² − (Σw·y)²/Σw keeps the variance of targets far from it.
//
// A classification tree grows from its unit list alone: a node partitions
// its units in place and scores an ordered column from a histogram over the
// column's rank codes (SplitColumn.codes), so it needs no order and never
// sorts. Its class counts are exact integers in any order, so its cuts are
// those of a scan over the node's (value, unit)-sorted sequence, bit for bit.
//
// A regression tree's sums are not order-free, so its ordered columns are
// swept in (value, unit) order, in one of two regimes chosen per subtree by
// counts only — the node's samples m, the feature count d and the resolved
// mtry, never data values or scheduling — so the choice is deterministic:
//
//   - presorted: every feature's (value, unit) order is derived once per
//     tree, linearly, from the forest's shared split set, and stably
//     partitioned down the tree, so nodes never sort. Each split pays O(d·u)
//     to repartition the orders of its u units.
//   - flat: a node sorts its units by each candidate feature's values with
//     the presort's own introsort (sortOrder). Each split pays
//     O(mtry·u·log u) with tiny constants and no d-factor.
//
// Flat wins exactly when mtry·⌈log₂ m⌉ < d: useFlatKernel is that rule and
// nothing else, and grow's hand-off, a forest's need for global orders and a
// tree's root regime all ask it with the node's sample count, so the regimes
// are those of the expanded kernel. It is monotone in m, so a subtree that
// crosses into the flat regime stays there. Regression forests (mtry = d/3)
// stay presorted down to m ≈ 4, whatever n is; no node size overrides the
// rule and no constant weights it: with the sort side counted twice the
// benchmark measured the same.
//
// Every candidate is scored from sums against the node's totals, which
// nodeStats computes once per node. A two-valued column (SplitColumn.mask;
// every one-hot column) has one admissible boundary and needs neither an
// order nor codes: its high side's sums — class counts, or Σw, Σw·y,
// Σw·(y·y) — score it, the low side being the node total minus them. The
// split set groups its two-valued columns so that no two members of a group
// are high on the same row (a one-hot categorical's indicators form one
// group), and the first member of a group a node draws sums every member's
// high side in one pass over the node's units (sumGroup); the others read
// theirs. Each member's sums still add its own high units in the node's unit
// order, so they are bit-identical to a pass over that column alone. An
// ordered regression column is swept by regressionCut, which reads values,
// targets and weights through the order in place and maximises CART's proxy
// sumL²/nL + sumR²/nR (sumR and nR from the node totals) — the exact
// variance reduction is computed once per node, for the winner, from its
// kept left-side sums.
//
// The classification cut screens each boundary before its divisions: sample
// counts are integers, so a per-workspace table inv[i] = 1/i turns the gain
// into products whose error is a few ulp, and a boundary whose screened gain
// falls short of the best so far by more than 1e-12 could never have won, so
// it is skipped and the argmax is the unscreened scan's. (The same screen in
// regressionCut measured no faster than its two divisions, so it has none.)
// Every product an exact score relies on is wrapped in float64(...), which
// rounds it, so no architecture fuses it into a multiply-add: the goldens
// are the unfused amd64 bits everywhere.

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
	planes int     // order planes in ws.orders: d, plus the unit plane when copied
	ymean  float64 // the mean the regression targets ws.ys were centred by
	// groups and twoOf are the split set's two-valued groups (twoGroup);
	// stamp numbers the nodes bestSplit has searched, so a group's block in
	// ws.gsum is summed once per node, by the first of its members drawn.
	groups []twoGroup
	twoOf  []twoRef
	stamp  int32
}

// FitTree grows a CART tree over the samples indexed by idx (all samples if
// idx is nil; duplicate indices are allowed and count with multiplicity).
// Each index entry is one unit of weight 1: the tree is the one a forest
// grows over a split set of the indexed rows with every multiplicity 1. rng
// is only used when cfg.MTry restricts the feature set.
func FitTree(ds *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if idx != nil {
		ds = ds.Subset(idx)
	}
	ss := splitSetFor(ds, cfg, 1)
	ws := treeScratch.Get()
	ws.cnt = grow(ws.cnt, ds.N)
	for r := range ws.cnt {
		ws.cnt[r] = 1
	}
	t := fitTreeFromSplitSet(ss, cfg, rng, ws)
	treeScratch.Put(ws)
	return t
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
// varianceGain computes the winner's exact reduction; for an ordered
// classification column, the rank codes lo and hi either side of the
// boundary, from which bestSplit computes the winner's threshold, and the
// boundaries its screen let through to an exact gain. A cut scoring -Inf has
// no admissible boundary.
type cut struct {
	thr, score       float64
	n, sum, sq       float64
	lo, hi, screened int32
}

var noCut = cut{score: math.Inf(-1)}

// varianceGain returns regression cut c's exact variance reduction over a
// node with totals nt.
func varianceGain(c cut, nt *nodeTotals) float64 {
	nr, sumR, sqR := nt.n-c.n, nt.sum-c.sum, nt.sq-c.sq
	varL := max(c.sq/c.n-float64((c.sum/c.n)*(c.sum/c.n)), 0)
	varR := max(sqR/nr-float64((sumR/nr)*(sumR/nr)), 0)
	return nt.imp - float64((c.n/nt.n)*varL) - float64((nr/nt.n)*varR)
}

// bestSplit scores MTry candidate features over the node holding units and
// returns the best (feature, threshold, impurity gain), or feature -1. A
// presorted regression node (flat false) reads an ordered feature's order
// from its plane at [start, start+len(units)); a flat one sorts. The feats
// permutation persists across nodes of one tree, exactly like the original
// kernel's partial Fisher-Yates state.
func (b *treeBuilder) bestSplit(units []int32, nt *nodeTotals, flat bool, start int) (int, float64, float64) {
	mtry := b.shuffleFeats()
	ws := b.ws
	b.stamp++
	end := start + len(units)
	bestFeat, best := -1, noCut
	for _, feat := range ws.feats[:mtry] {
		sc := &b.scols[feat]
		var c cut
		switch {
		case sc.mask != nil:
			c = b.twoValuedCut(feat, units, nt)
		case b.task == Classification:
			c = b.classCut(sc, units, nt)
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
		if rc := b.scols[bestFeat].codes; rc != nil {
			best.thr = midpoint(rc.vals[best.lo], rc.vals[best.hi])
		}
		return bestFeat, best.thr, best.score
	}
	return bestFeat, best.thr, varianceGain(best, nt)
}

// twoValuedCut scores two-valued column feat's one boundary over the node
// holding units, from its slot of its group's block: the high side's class
// counts, or Σw, Σw·y and Σw·(y·y); the low side is the node's total minus
// them. The first member of a group drawn at a node sums the block for all
// members (sumGroup).
func (b *treeBuilder) twoValuedCut(feat int, units []int32, nt *nodeTotals) cut {
	ws := b.ws
	ref := b.twoOf[feat]
	if ws.gseen[ref.group] != b.stamp {
		ws.gseen[ref.group] = b.stamp
		b.sumGroup(&b.groups[ref.group], units)
	}
	fmin := float64(b.cfg.MinLeaf)
	var c cut
	if b.task == Classification {
		h := ws.gsum[ref.at : int(ref.at)+b.classes]
		nh := 0.0
		for _, x := range h {
			nh += x
		}
		nl := nt.n - nh
		if nl < fmin || nh < fmin {
			return noCut
		}
		leftSq, rightSq := 0.0, 0.0
		for cls, x := range h {
			l := ws.tcnt[cls] - x
			leftSq += float64(l * l)
			rightSq += float64(x * x)
		}
		giniL := 1 - leftSq/(nl*nl)
		giniR := 1 - rightSq/(nh*nh)
		c.score = nt.imp - float64((nl/nt.n)*giniL) - float64((nh/nt.n)*giniR)
	} else {
		h := ws.gsum[ref.at : ref.at+3 : ref.at+3]
		nh, sh, qh := h[0], h[1], h[2]
		nl := nt.n - nh
		if nl < fmin || nh < fmin {
			return noCut
		}
		c.n, c.sum, c.sq = nl, nt.sum-sh, nt.sq-qh
		c.score = c.sum*c.sum/nl + sh*sh/nh
	}
	sc := &b.scols[feat]
	c.thr = midpoint(sc.lo, sc.hi)
	return c
}

// sumGroup fills group g's block in one pass over the node's units: each
// unit's class count, or w, w·y and w·(y·y), goes to the slot its row's code
// names. A member's slot thus adds its high units' terms in the order of
// units — the sequence a pass over that member alone would add, so its sums
// are bit-identical to one. Class counts are exact integers, so their total
// is the high side's Σw in any order.
func (b *treeBuilder) sumGroup(g *twoGroup, units []int32) {
	ws := b.ws
	code, ro, wt := g.code, b.rowOf, ws.wt
	blk := ws.gsum[g.off : g.off+(g.size+1)*slotWidth(b.task, b.classes)]
	clear(blk)
	if b.task == Classification {
		k, labels := b.classes, ws.labels
		for _, p := range units {
			blk[int(code[ro[p]])*k+int(labels[p])] += wt[p]
		}
		return
	}
	ys := ws.ys
	for _, p := range units {
		s := blk[3*int(code[ro[p]]):]
		s = s[:3:3]
		w, y := wt[p], ys[p]
		s[0] += w
		s[1] += float64(w * y)
		s[2] += float64(w * (y * y))
	}
}

// classCut scores ordered column sc of a classification node from a
// histogram over its rank codes: one pass over the node's units adds each
// unit's multiplicity into its (code, class) cell of ws.hist and marks the
// code (fill, codeMarks); the marked codes are then walked in ascending order
// — the column's distinct values over the node, ascending — moving each
// code's class counts to the left side, and clearing the cells and marks
// behind them. Moving x samples of class c adds x·(2·l[c] + x) to the left's
// Σcnt² and t[c]·x to Σt·l, from which the right's Σ(t−l)² follows. These
// are integers, exact in int64 and in their float64 images, so each
// boundary's gain and threshold are bit-equal to a scan over the node's
// value-sorted units. A boundary pays the gain's four divisions only when its
// screened Σcnt²/n terms, through ws.inv, reach the best gain less 1e-12.
func (b *treeBuilder) classCut(sc *SplitColumn, units []int32, nt *nodeTotals) cut {
	ws := b.ws
	rc := sc.codes
	k, hist, cls, marks, lv := b.classes, ws.hist, ws.cls, ws.marks, newCodeMarks(len(rc.vals))
	switch {
	case rc.u8 != nil:
		fill(&lv, hist, cls, marks, k, units, rc.u8, b.rowOf, ws.labels, ws.cnt)
	case rc.u16 != nil:
		fill(&lv, hist, cls, marks, k, units, rc.u16, b.rowOf, ws.labels, ws.cnt)
	default:
		fill(&lv, hist, cls, marks, k, units, rc.u32, b.rowOf, ws.labels, ws.cnt)
	}
	lcnt, tcnt := ws.lcnt, ws.icnt
	var leftSq, cross, totSq, nl int64 // cross = Σ tcnt·lcnt
	for j, t := range ws.tcnt {
		lcnt[j], tcnt[j] = 0, int64(t)
		totSq += int64(t) * int64(t)
	}
	// The gain is nt.imp - 1 + (leftSq/nl + rightSq/nr)/n, so a boundary's
	// screened Σ/n terms must reach need: the best gain less 1e-12, in them.
	n, fmin, inv := int64(nt.n), int64(b.cfg.MinLeaf), ws.inv
	best, need, prev := noCut, math.Inf(-1), -1
	for w := lv.first(marks); w >= 0; w = lv.next(marks, w) {
		word := marks[w]
		marks[w] = 0
		for ; word != 0; word &= word - 1 {
			c := w<<6 | bits.TrailingZeros64(word)
			if nr := n - nl; prev >= 0 && nl >= fmin && nr >= fmin {
				ls, rs := float64(leftSq), float64(totSq-2*cross+leftSq)
				if float64(ls*inv[nl])+float64(rs*inv[nr]) >= need {
					best.screened++
					fl, fr := float64(nl), float64(nr)
					giniL, giniR := 1-ls/(fl*fl), 1-rs/(fr*fr)
					if gain := nt.imp - float64((fl/nt.n)*giniL) - float64((fr/nt.n)*giniR); gain > best.score {
						best.score, best.lo, best.hi = gain, int32(prev), int32(c)
						need = float64((gain - 1e-12 - nt.imp + 1) * nt.n)
					}
				}
			}
			h := hist[c*k : c*k+k]
			var dl, dc, dn int64
			for m := cls[c]; m != 0; m &= m - 1 {
				for j := bits.TrailingZeros64(m); j < k; j += 64 {
					x := int64(h[j])
					dl += x * (2*lcnt[j] + x)
					dc += x * tcnt[j]
					lcnt[j] += x
					dn += x
					h[j] = 0
				}
			}
			cls[c] = 0
			leftSq, cross, nl, prev = leftSq+dl, cross+dc, nl+dn, c
		}
	}
	return best
}

// midpoint is the threshold between adjacent values v0 < v1.
func midpoint(v0, v1 float64) float64 {
	return v0 + float64((v1-v0)/2)
}

// codeMarks lays a set of rank codes out as a bitset hierarchy in ws.marks:
// level 0 holds a bit per code, each level above a bit per non-empty word of
// the level below, and the top level is one word, so the depth grows with
// log₆₄ of the code count. first and next visit the non-empty level-0 words
// in ascending order, clearing the upper levels behind them; the caller
// clears each level-0 word it reads, so a full walk leaves the set empty.
type codeMarks struct {
	off    [7]int // level l's first word; off[levels] is the words the set takes
	levels int
}

// newCodeMarks lays out a set of codes [0, codes).
func newCodeMarks(codes int) codeMarks {
	var m codeMarks
	for words := max((codes+63)>>6, 1); ; words = (words + 63) >> 6 {
		m.off[m.levels+1] = m.off[m.levels] + words
		if m.levels++; words == 1 {
			return m
		}
	}
}

// fill adds each unit's multiplicity cnt[r] into the (code[r], class) cell
// of hist, r being the unit's row, sets bit class mod 64 of cls[code[r]],
// and marks the codes in w, laid out by m.
func fill[C uint8 | uint16 | uint32](m *codeMarks, hist []int32, cls, w []uint64, k int, units []int32, code []C, ro, labels, cnt []int32) {
	top, shift := uint64(0), 6*(m.levels-1) // the top word, kept in a register
	for _, p := range units {
		r, y := ro[p], int(labels[p])
		c := int(code[r])
		hist[c*k+y] += cnt[r]
		cls[c] |= 1 << (y & 63)
		top |= 1 << (c >> shift)
		for l, j := 0, c; l < m.levels-1; l++ {
			w[m.off[l]+j>>6] |= 1 << (j & 63)
			j >>= 6
		}
	}
	w[m.off[m.levels-1]] = top
}

// first returns the lowest non-empty level-0 word, or -1 for an empty set.
func (m *codeMarks) first(w []uint64) int {
	if w[m.off[m.levels-1]] == 0 {
		return -1
	}
	i := 0
	for l := m.levels - 1; l > 0; l-- {
		i = i<<6 | bits.TrailingZeros64(w[m.off[l]+i])
	}
	return i
}

// next unmarks level-0 word i in the levels above it and returns first.
func (m *codeMarks) next(w []uint64, i int) int {
	for l := 1; l < m.levels; l++ {
		j := m.off[l] + i>>6
		if w[j] &^= 1 << (i & 63); w[j] != 0 {
			break
		}
		i >>= 6
	}
	return m.first(w)
}

// flatOrder sorts a flat regression node's units by ordered feature feat and
// returns the feature's values indexed by unit with that (value, unit) order
// — a column read through rowOf is gathered into ws.uval first — or false
// when the feature is constant over the node.
func (b *treeBuilder) flatOrder(units []int32, feat int) ([]float64, []int32, bool) {
	col, ord := b.scols[feat].v, b.ws.pay[:len(units)]
	copy(ord, units)
	if ro := b.rowsOf(feat); ro != nil {
		for _, p := range units {
			b.ws.uval[p] = col[ro[p]]
		}
		col = b.ws.uval
	}
	sortOrder(col, ord)
	if col[ord[0]] == col[ord[len(ord)-1]] {
		return nil, nil, false
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
	feat, thr, gain := b.bestSplit(units, &nt, false, start)
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
	b.tree.importance[feat] += float64(gain * float64(m))
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

// growFlat recursively builds the subtree over the given units, partitioning
// them in place: a regression node sorts each candidate feature's values into
// flat scratch, a classification node histograms its codes.
func (b *treeBuilder) growFlat(samples []int32, depth int) int32 {
	nt, value := b.nodeStats(samples)
	m := int(nt.n)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: value})
	if nt.imp <= 1e-12 || m < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return id
	}
	feat, thr, gain := b.bestSplit(samples, &nt, true, 0)
	if feat < 0 || gain < 0 {
		return id
	}
	nl := b.partitionFlat(samples, feat, thr)
	if nl == 0 || nl == len(samples) {
		return id
	}
	b.tree.importance[feat] += float64(gain * float64(m))
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
			gini -= float64(p * p)
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
		t.sum += float64(w * y)
		t.sq += float64(w * (y * y))
	}
	mean := t.sum / t.n
	t.imp = t.sq/t.n - float64(mean*mean)
	return t, mean + b.ymean
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
		sl += float64(w * y)
		ql += float64(w * (y * y))
		nr := nt.n - nl
		if nr < fmin {
			break // every later boundary leaves fewer on the right
		}
		v1 := col[ord[i]]
		if v0 != v1 && nl >= fmin {
			sr := nt.sum - sl
			if s := sl*sl/nl + sr*sr/nr; s > best.score {
				best = cut{thr: midpoint(v0, v1), score: s, n: nl, sum: sl, sq: ql}
			}
		}
		v0 = v1
	}
	return best
}

package ml

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
// partitions, gathers, scans — walks units, and a node's sample count m is
// its units' Σw: MinLeaf, the importance weight, the leaf mean and the regime
// rule all count samples, so a tree over units is the tree over the expanded
// copies. Class counts add w exactly, so classification trees are
// bit-identical to the expanded kernel's; regression sums add w·y and w·y²
// once per unit, a different float order from adding y w times.
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
// Within either regime a two-valued column (SplitColumn.mask; every one-hot
// column) carries no order at all: over any node its (value, unit) sequence
// is the node's units ascending, lows first, then highs. The presorted
// regime keeps one extra plane per tree for that — all units, ascending per
// node range, partitioned like a feature's order — and the flat regime sorts
// a node's units once; splitByMask turns either into a two-valued feature's
// order in one stable pass. Both regimes feed the same scan loops the same
// sequences, so which path produced a sequence never shows in a tree.

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
	// canScan marks the shared-column flat path where units are rows in
	// ascending order: large nodes then extract their sorted (value, unit)
	// sequence from a column's global order instead of sorting.
	canScan bool
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

// splitByMask stably splits pos — units in ascending order — into
// two-valued feature feat's (value, unit) order: the units holding its low
// value, then those holding its high one. It returns the order (in scratch,
// valid until the next call) and the number of lows. Both cursors are
// written unconditionally and advanced by the mask byte, so the loop has no
// data-dependent branch.
func (b *treeBuilder) splitByMask(pos []int32, feat int) ([]int32, int) {
	mask, ro := b.scols[feat].mask, b.rowOf
	lows, highs := b.ws.pay[:len(pos)], b.ws.spill[:len(pos)]
	w, h := 0, 0
	for _, p := range pos {
		hb := int(mask[ro[p]])
		lows[w], highs[h] = p, p
		w += 1 - hb
		h += hb
	}
	copy(lows[w:], highs[:h])
	return lows, w
}

// orderedPairs fills (vbuf, out, wbuf) with the values, payloads (labels or
// targets, by unit) and multiplicities of the units in ord — one feature's
// (value, unit) order over a node; nlow is splitByMask's count when the
// feature is two-valued, negative otherwise. It reports false, possibly
// without filling anything, when the feature is constant over the node: no
// split exists.
func orderedPairs[T int32 | float64](b *treeBuilder, feat int, ord []int32, nlow int, vbuf []float64, out, payload []T, wbuf []float64) bool {
	sc := &b.scols[feat]
	wt := b.ws.wt
	if nlow < 0 {
		col := sc.v
		for i, p := range ord {
			vbuf[i] = col[p]
			out[i] = payload[p]
			wbuf[i] = wt[p]
		}
		return vbuf[0] != vbuf[len(ord)-1]
	}
	if nlow == 0 || nlow == len(ord) {
		return false
	}
	for i := range vbuf[:nlow] {
		vbuf[i] = sc.lo
	}
	for i := nlow; i < len(ord); i++ {
		vbuf[i] = sc.hi
	}
	for i, p := range ord {
		out[i] = payload[p]
		wbuf[i] = wt[p]
	}
	return true
}

// ---- presorted kernel ----

// nodeOrder returns feature feat's units over the node range [start, end)
// in ascending (value, unit) order — its own plane's range, or for a
// two-valued feature the unit plane's range split by the mask — and
// splitByMask's low count (negative for an ordered feature).
func (b *treeBuilder) nodeOrder(feat, start, end int) ([]int32, int) {
	mt := b.units
	if b.scols[feat].mask == nil {
		return b.ws.orders[feat*mt+start : feat*mt+end], -1
	}
	return b.splitByMask(b.ws.orders[b.d*mt+start:b.d*mt+end], feat)
}

// grow recursively builds the subtree over units [start, end) of every
// order plane and returns its node index. A subtree the cost rule calls flat
// hands off to the flat kernel: its units are read out in feature 0's
// order — like the node statistics, so sums run in one order whichever way
// that feature is stored — after which the planes' ranges are simply
// abandoned.
func (b *treeBuilder) grow(start, end, depth int) int32 {
	ord0, _ := b.nodeOrder(0, start, end)
	imp, value, m := b.nodeStats(ord0)
	if useFlatKernel(b.mtry, b.d, m) {
		s := b.ws.samples[start:end]
		copy(s, ord0)
		return b.growFlat(s, depth)
	}
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: value})
	if imp <= 1e-12 || m < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return id
	}
	// Zero-gain splits are allowed (impurity gain is non-negative for
	// concave criteria, and e.g. XOR's first split has exactly zero gain).
	feat, thr, gain := b.bestSplit(start, end, imp)
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

// bestSplit scans MTry candidate features and returns the best (feature,
// threshold, impurity gain). The feats permutation persists across nodes of
// one tree, exactly like the original kernel's partial Fisher-Yates state.
func (b *treeBuilder) bestSplit(start, end int, parentImp float64) (int, float64, float64) {
	mtry := b.shuffleFeats()
	ws := b.ws
	u := end - start
	vbuf, wbuf := ws.vbuf[:u], ws.wbuf[:u]
	bestFeat, bestThr, bestGain := -1, 0.0, math.Inf(-1)
	for _, feat := range ws.feats[:mtry] {
		ord, nlow := b.nodeOrder(feat, start, end)
		var thr, gain float64
		if b.task == Classification {
			lbuf := ws.lbuf[:u]
			if !orderedPairs(b, feat, ord, nlow, vbuf, lbuf, ws.labels, wbuf) {
				continue // constant feature in this node: no split exists
			}
			thr, gain = scanSplitsClass(vbuf, lbuf, wbuf, ws.lcnt, ws.rcnt, parentImp, b.cfg.MinLeaf)
		} else {
			ybuf := ws.ybuf[:u]
			if !orderedPairs(b, feat, ord, nlow, vbuf, ybuf, ws.ys, wbuf) {
				continue
			}
			thr, gain = scanSplitsReg(vbuf, ybuf, wbuf, parentImp, b.cfg.MinLeaf)
		}
		if gain > bestGain {
			bestFeat, bestThr, bestGain = feat, thr, gain
		}
	}
	return bestFeat, bestThr, bestGain
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
	imp, value, m := b.nodeStats(samples)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: value})
	if imp <= 1e-12 || m < 2*b.cfg.MinLeaf ||
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
	feat, thr, gain := b.bestSplitFlat(samples, imp, counts)
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

// nodeStats returns the impurity (Gini for classification, variance for
// regression), the prediction and the sample count Σw of the node holding
// the given units, summing in their order.
func (b *treeBuilder) nodeStats(samples []int32) (imp, value float64, m int) {
	ws := b.ws
	wt := ws.wt
	n := 0.0
	if b.task == Classification {
		cnt := ws.lcnt
		for k := range cnt {
			cnt[k] = 0
		}
		for _, p := range samples {
			w := wt[p]
			cnt[ws.labels[p]] += w
			n += w
		}
		gini := 1.0
		best, bestK := -1.0, 0
		for k, c := range cnt {
			p := c / n
			gini -= p * p
			if c > best {
				best, bestK = c, k
			}
		}
		return gini, float64(bestK), int(n)
	}
	sum, sumSq := 0.0, 0.0
	for _, p := range samples {
		w, y := wt[p], ws.ys[p]
		n += w
		sum += w * y
		sumSq += w * (y * y)
	}
	mean := sum / n
	return sumSq/n - mean*mean, mean, int(n)
}

// sortedPairs fills (vbuf, pay) with the node's (value, unit) pairs in
// ascending (value, unit) order by gathering and sorting. Nodes eligible
// for counting-scan extraction use scanVals instead, two-valued features
// splitByMask.
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

// scanVals fills (vbuf, out, wbuf) with the node's ascending
// (value, payload, multiplicity) triples via a counting scan of the
// feature's global (value, row) order — units are the drawn rows in
// ascending row order, so walking rows in global value order and emitting
// each in-node row once produces exactly the sequence sortKV would: same
// comparison relation, unique total order, zero comparisons. The payload is
// the unit's label (classification) or target (regression) rather than the
// unit itself, and in-node membership is counts, the node's multiplicity
// per row — no per-unit mask checks. Returns false when the feature carries
// no global order (caller falls back to the sort).
func scanVals[T int32 | float64](b *treeBuilder, feat int, counts []int32, vbuf []float64, out, payload []T, wbuf []float64) bool {
	sc := b.scols[feat]
	if sc.ord == nil {
		return false
	}
	unitOf := b.ws.unitOf
	col := sc.v
	k := 0
	for _, r := range sc.ord {
		c := counts[r]
		if c == 0 {
			continue
		}
		vbuf[k] = col[r]
		out[k] = payload[unitOf[r]]
		wbuf[k] = float64(c)
		k++
	}
	return true
}

// bestSplitFlat produces each candidate feature's sorted (value, unit)
// pairs — by counting scan over counts when that is non-nil — and sweeps the
// flat scan.
func (b *treeBuilder) bestSplitFlat(samples []int32, parentImp float64, counts []int32) (int, float64, float64) {
	mtry := b.shuffleFeats()
	ws := b.ws
	u := len(samples)
	vbuf, wbuf := ws.vbuf[:u], ws.wbuf[:u]
	var spos []int32 // flatPairs' sorted copy of samples, once a candidate needs it
	bestFeat, bestThr, bestGain := -1, 0.0, math.Inf(-1)
	for _, feat := range ws.feats[:mtry] {
		var thr, gain float64
		if b.task == Classification {
			lbuf := ws.lbuf[:u]
			if !flatPairs(b, samples, &spos, feat, counts, vbuf, lbuf, ws.labels, wbuf) {
				continue
			}
			thr, gain = scanSplitsClass(vbuf, lbuf, wbuf, ws.lcnt, ws.rcnt, parentImp, b.cfg.MinLeaf)
		} else {
			ybuf := ws.ybuf[:u]
			if !flatPairs(b, samples, &spos, feat, counts, vbuf, ybuf, ws.ys, wbuf) {
				continue
			}
			thr, gain = scanSplitsReg(vbuf, ybuf, wbuf, parentImp, b.cfg.MinLeaf)
		}
		if gain > bestGain {
			bestFeat, bestThr, bestGain = feat, thr, gain
		}
	}
	return bestFeat, bestThr, bestGain
}

// flatPairs fills (vbuf, out, wbuf) with feature feat's ascending
// (value, payload, multiplicity) sequence over a flat node and reports
// whether the feature varies there. A two-valued feature splits the node's
// units, sorted once per node into *spos by the first such candidate; any
// other feature extracts by counting scan where that is cheaper (counts
// non-nil) and it carries a global order, and gathers and sorts otherwise.
func flatPairs[T int32 | float64](b *treeBuilder, samples []int32, spos *[]int32, feat int, counts []int32, vbuf []float64, out, payload []T, wbuf []float64) bool {
	u := len(samples)
	if b.scols[feat].mask != nil {
		if *spos == nil {
			*spos = b.ws.spos[:u]
			copy(*spos, samples)
			slices.Sort(*spos)
		}
		ord, nlow := b.splitByMask(*spos, feat)
		return orderedPairs(b, feat, ord, nlow, vbuf, out, payload, wbuf)
	}
	if counts != nil && scanVals(b, feat, counts, vbuf, out, payload, wbuf) {
		return vbuf[0] != vbuf[u-1]
	}
	pay := b.ws.pay[:u]
	b.sortedPairs(samples, feat, vbuf, pay)
	if vbuf[0] == vbuf[u-1] {
		return false
	}
	wt := b.ws.wt
	for i, p := range pay {
		out[i] = payload[p]
		wbuf[i] = wt[p]
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

// ---- shared scan loops ----

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

// scanSplitsReg sweeps a node's value-sorted (values, targets, weights)
// sequence for the best variance-reduction split via incremental sums; each
// entry adds w·y and w·y² once, and minLeaf counts samples.
func scanSplitsReg(vals, ys, weights []float64, parentImp float64, minLeaf int) (float64, float64) {
	n := len(vals)
	var fn, sumL, sqL, sumR, sqR float64
	for i, y := range ys {
		fn += weights[i]
		sumR += weights[i] * y
		sqR += weights[i] * (y * y)
	}
	fmin := float64(minLeaf)
	nl := 0.0
	bestThr, bestGain := 0.0, math.Inf(-1)
	for pos := 1; pos < n; pos++ {
		w, y := weights[pos-1], ys[pos-1]
		wy := w * y
		wyy := w * (y * y)
		sumL += wy
		sqL += wyy
		sumR -= wy
		sqR -= wyy
		nl += w
		nr := fn - nl
		v0, v1 := vals[pos-1], vals[pos]
		if v0 == v1 || nl < fmin || nr < fmin {
			continue
		}
		varL := sqL/nl - (sumL/nl)*(sumL/nl)
		varR := sqR/nr - (sumR/nr)*(sumR/nr)
		if varL < 0 {
			varL = 0
		}
		if varR < 0 {
			varR = 0
		}
		gain := parentImp - (nl/fn)*varL - (nr/fn)*varR
		if gain > bestGain {
			bestGain = gain
			bestThr = v0 + (v1-v0)/2
		}
	}
	return bestThr, bestGain
}

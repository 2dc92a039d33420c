package ml

import (
	"math/rand"

	"github.com/arda-ml/arda/internal/parallel"
)

// treeWorkspace is the pooled per-tree scratch of the split kernel. One
// workspace serves one FitTree call at a time; the pool amortizes the
// columns, orders, and scan buffers across the hundreds of trees a RIFS run
// fits. All slices are length-managed by the reserve helpers, which size
// them by the tree's sample count m — never by its unit count, which varies
// from one bootstrap to the next: sized by units, the workspace would regrow
// whenever a bootstrap drew more distinct rows than any before, while every
// tree of a forest shares m. Contents are garbage between trees except
// `left`, which is kept all-zero by partition so it never needs re-clearing.
type treeWorkspace struct {
	// Common scratch (both kernels).
	ys      []float64     // target by unit (regression: centred)
	labels  []int32       // class code by unit (classification)
	wt      []float64     // multiplicity by unit
	inv     []float64     // inv[i] = 1/i for i ≤ m: the classification cut's screen
	uval    []float64     // a flat node's feature values by unit (regression, columns read through rowOf)
	tcnt    []float64     // the node's class counts (nodeStats)
	lcnt    []int64       // a classification cut's class counts left of a boundary
	icnt    []int64       // the node's class counts, as integers (classCut)
	feats   []int         // feature permutation for MTry shuffles
	samples []int32       // flat-kernel unit lists, partitioned in place
	pay     []int32       // flat-kernel sort payload (units)
	cnt     []int32       // multiplicity per split-set row
	rowOf   []int32       // unit → split-set row
	scols   []SplitColumn // per-feature column headers handed to the builder
	// A classification node's histogram: class counts per (rank code, class)
	// cell, the classes (mod 64) present per code, and the codes present
	// (codeMarks); all three all-zero between cuts.
	hist  []int32
	cls   []uint64
	marks []uint64
	// Presorted-kernel scratch, one u-long slot per plane (splitSet.plane).
	colv []float64 // an ordered column's values by unit, per ordered column
	// orders holds one u-long plane per column that can split and is not
	// two-valued — its units, value-sorted per node range — and, when the
	// split set keeps one, the unit plane: all units ascending per node
	// range, from which a two-valued column's order is split on demand.
	orders []int32
	spill  []int32 // stable-partition scratch for right-bound units
	left   []uint8 // goes-left mask during a split (all-zero invariant)
	unitOf []int32 // unit per drawn split-set row (order derivation)
	// Two-valued groups' scratch: the blocks of the groups' high-side sums
	// (twoGroup), and per group the node stamp its block was last summed at.
	gsum  []float64
	gseen []int32
	// rng is a bootstrap tree's stream, reseeded per tree.
	rng *rand.Rand
}

// retained is the workspace's pooled footprint in bytes (slice capacities,
// not lengths); the presorted kernel's planes and column copies, m entries
// each, dominate. It feeds the pool's retention cap so sweep-sized trees
// don't keep base-table-sized scratch alive.
func (ws *treeWorkspace) retained() int {
	f := cap(ws.ys) + cap(ws.wt) + cap(ws.inv) + cap(ws.uval) + cap(ws.tcnt) +
		cap(ws.lcnt) + cap(ws.icnt) + cap(ws.colv) + cap(ws.gsum) + cap(ws.cls) + cap(ws.marks)
	i := cap(ws.labels) + cap(ws.samples) + cap(ws.pay) + cap(ws.cnt) + cap(ws.hist) +
		cap(ws.rowOf) + cap(ws.orders) + cap(ws.spill) + cap(ws.unitOf) + cap(ws.gseen)
	return f*8 + i*4 + cap(ws.feats)*8 + cap(ws.left) + cap(ws.scols)*splitColumnBytes
}

var treeScratch = parallel.NewScratchPoolSized(
	func() *treeWorkspace { return &treeWorkspace{} },
	(*treeWorkspace).retained,
)

// reserve sizes the common scratch for m samples, d features, and, for a
// classification tree, k classes and the histogram over ss's rank codes,
// growing allocations only when needed, and resets the feature permutation
// to the identity (each tree starts its Fisher-Yates state fresh, as the
// per-node sorting kernel did).
func (ws *treeWorkspace) reserve(ss *splitSet, m, d int) {
	ws.ys = grow(ws.ys, m)
	ws.wt = grow(ws.wt, m)
	ws.samples = grow(ws.samples, m)
	if k := ss.classes; ss.task == Classification {
		if len(ws.inv) <= m {
			ws.inv = make([]float64, m+1)
			for i := 1; i <= m; i++ {
				ws.inv[i] = 1 / float64(i)
			}
		}
		ws.labels = grow(ws.labels, m)
		ws.tcnt = grow(ws.tcnt, k)
		ws.lcnt = grow(ws.lcnt, k)
		ws.icnt = grow(ws.icnt, k)
		ws.hist = grow(ws.hist, ss.codes*k)
		ws.cls = grow(ws.cls, ss.codes)
		marks := newCodeMarks(ss.codes)
		ws.marks = grow(ws.marks, marks.off[marks.levels])
	} else {
		ws.pay = grow(ws.pay, m)
		ws.uval = grow(ws.uval, m)
	}
	ws.feats = grow(ws.feats, d)
	for j := range ws.feats {
		ws.feats[j] = j
	}
}

// reserveOrders sizes the presorted kernel's column copies (one per ordered
// column), column headers, order planes and partition scratch.
func (ws *treeWorkspace) reserveOrders(m, d, ordered, planes int) {
	ws.colv = grow(ws.colv, m*ordered)
	ws.scols = grow(ws.scols, d)
	ws.orders = grow(ws.orders, m*planes)
	ws.spill = grow(ws.spill, m)
	ws.left = grow(ws.left, m)
}

// grow returns s resized to n, reallocating (zeroed) only when its capacity
// is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// splitSet is a dataset's shared presort scaffold: column-major feature
// values plus — for a classification forest and in the presorted regression
// regime — per-feature row indices sorted by (value, row) and the rank codes
// derived from them. FitForest builds it once; a classification tree reads
// the shared columns' codes through its bootstrap row map; a regression tree
// either derives its per-tree orders from the global ones with a linear
// counting scan (presorted regime) or reads the shared columns through that
// map and sorts nodes flat, and a forest whose trees start flat skips the
// global orders entirely.
type splitSet struct {
	n, d    int
	task    Task
	classes int
	cols    []SplitColumn // per-feature values (+ (value,row) orders and codes when presorted)
	codes   int           // the most distinct values an ordered column has
	// groups partition the two-valued columns (groupTwo); twoOf[j] places
	// column j in one, and gsize is the slots all groups' blocks take.
	groups []twoGroup
	twoOf  []twoRef
	gsize  int
	ys     []float64 // targets; for regression centred, ys[r] = Y[r] - ymean
	ymean  float64
	labels []int32 // class codes (classification)
	// A presorted tree's order planes: plane[j] is column j's, -1 for a
	// two-valued or constant column, which has none. The ordered columns
	// (ordered, in column order) take planes 0 … len(ordered)-1; unitPlane
	// follows them when the set has two-valued groups or column 0 has no
	// plane, and is -1 otherwise. planes counts them all.
	plane     []int32
	ordered   []int32
	unitPlane int
	planes    int
}

// setTargets gives the set ds's targets: class codes for classification, for
// regression the targets centred by their mean, which every tree of the
// forest adds back at its leaves.
func (ss *splitSet) setTargets(ds *Dataset) {
	if ds.Task == Classification {
		ss.ys = ds.Y
		ss.labels = make([]int32, ds.N)
		for i := range ss.labels {
			ss.labels[i] = int32(ds.Label(i))
		}
		return
	}
	ss.ys = append([]float64(nil), ds.Y...)
	ss.ymean = centre(ss.ys)
}

// buildSplitSet gathers ds into column-major form, classifies each column
// and, when needOrders is set (classification, or the presorted regression
// regime), sorts every column that is not two-valued once, giving it rank
// codes for classification — all on the worker pool (columns are independent,
// so parallelism cannot change the result).
func buildSplitSet(ds *Dataset, workers int, needOrders bool) *splitSet {
	n, d := ds.N, ds.D
	ss := &splitSet{
		n:       n,
		d:       d,
		task:    ds.Task,
		classes: ds.Classes,
		cols:    make([]SplitColumn, d),
	}
	ss.setTargets(ds)
	colv := make([]float64, n*d)
	rbuf := make([]float64, d)
	for i := 0; i < n; i++ {
		ds.RowTo(i, rbuf)
		for j := 0; j < d; j++ {
			colv[j*n+i] = rbuf[j]
		}
	}
	for j := 0; j < d; j++ {
		ss.cols[j].v = colv[j*n : (j+1)*n]
	}
	parallel.ForEach(workers, d, func(j int) {
		ss.cols[j].classifyTwo()
		if needOrders {
			ss.cols[j].presort(nil)
		}
		if ss.task == Classification {
			ss.cols[j].rank()
		}
	})
	ss.markTwo()
	return ss
}

// maxGroup caps a group's members: a row's code is one byte, 0 for none.
const maxGroup = 254

// twoGroup is a set of two-valued columns no two of which are high on the
// same row. code[r] is 1 + the member high on row r, or 0 when none is; a
// lone member's code is its own mask. Its members' high-side sums sit in
// one block of size+1 slots from off in the tree's ws.gsum, slot 0 taking
// the rows no member is high on.
type twoGroup struct {
	code      []uint8
	size, off int
}

// twoRef places a two-valued column in its group: slot is 1 + its member
// index, the code its high rows carry, and at is where that slot starts in
// ws.gsum.
type twoRef struct {
	group, slot, at int32
}

// markTwo groups the set's two-valued columns (groupTwo) and lays out the
// groups' blocks: a slot holds class counts for classification, and Σw,
// Σw·y, Σw·(y·y) for regression. It also sizes the histograms (codes) and
// maps the columns to a presorted tree's order planes (plane).
func (ss *splitSet) markTwo() {
	for _, c := range ss.cols {
		if c.codes != nil {
			ss.codes = max(ss.codes, len(c.codes.vals))
		}
	}
	ss.groups, ss.twoOf = groupTwo(ss.cols)
	width := slotWidth(ss.task, ss.classes)
	for g := range ss.groups {
		ss.groups[g].off = ss.gsize
		ss.gsize += (ss.groups[g].size + 1) * width
	}
	for j, ref := range ss.twoOf {
		if ss.cols[j].mask != nil {
			ss.twoOf[j].at = int32(ss.groups[ref.group].off) + ref.slot*int32(width)
		}
	}
	ss.plane = make([]int32, ss.d)
	for j, c := range ss.cols {
		ss.plane[j] = -1
		if c.mask == nil && !c.constant {
			ss.plane[j] = int32(len(ss.ordered))
			ss.ordered = append(ss.ordered, int32(j))
		}
	}
	ss.unitPlane, ss.planes = -1, len(ss.ordered)
	if ss.groups != nil || (ss.d > 0 && ss.plane[0] < 0) {
		ss.unitPlane = ss.planes
		ss.planes++
	}
}

// slotWidth is the floats one member's slot of a group's block holds.
func slotWidth(task Task, classes int) int {
	if task == Classification {
		return classes
	}
	return 3
}

// groupTwo partitions the two-valued columns of cols into groups whose high
// rows are pairwise disjoint — a one-hot categorical's indicators share one
// — greedily in column order: each column joins the first group it is
// disjoint from and that has fewer than maxGroup members, or starts a new
// one. Only disjointness matters to the kernel, so the grouping needs
// nothing from the encoder. twoOf is nil when no column is two-valued.
func groupTwo(cols []SplitColumn) ([]twoGroup, []twoRef) {
	var groups []twoGroup
	var twoOf []twoRef
	for j := range cols {
		mask := cols[j].mask
		if mask == nil {
			continue
		}
		if twoOf == nil {
			twoOf = make([]twoRef, len(cols))
		}
		g := 0
		for ; g < len(groups); g++ {
			if groups[g].size < maxGroup && disjoint(groups[g].code, mask) {
				break
			}
		}
		if g == len(groups) {
			groups = append(groups, twoGroup{code: mask, size: 1})
			twoOf[j] = twoRef{group: int32(g), slot: 1}
			continue
		}
		grp := &groups[g]
		if grp.size == 1 {
			grp.code = append([]uint8(nil), grp.code...) // stop aliasing the first member's mask
		}
		grp.size++
		for r, h := range mask {
			grp.code[r] += h * uint8(grp.size)
		}
		twoOf[j] = twoRef{group: int32(g), slot: int32(grp.size)}
	}
	return groups, twoOf
}

// disjoint reports whether no row is high in mask and coded in code.
func disjoint(code, mask []uint8) bool {
	for r, h := range mask {
		if h != 0 && code[r] != 0 {
			return false
		}
	}
	return true
}

// fitTreeFromSplitSet grows one tree over a bootstrap sample given as
// per-row multiplicities ws.cnt (Σcnt samples total). The tree's units are
// the rows the bootstrap drew, in ascending row order, each weighted by its
// multiplicity. A classification tree, and a regression tree in the flat
// regime, reads the shared columns through the unit→row map and no per-tree
// columns are materialized at all; in the presorted regime, emitting drawn
// rows in global value order yields per-tree orders already sorted by
// (value, unit) without comparing a single value. In either regime a
// two-valued column is read in place, through that map and its group's code
// bytes (scoring) or its byte mask (partitioning), and a constant column is
// never read: neither gets an order plane or a copy.
func fitTreeFromSplitSet(ss *splitSet, cfg TreeConfig, rng *rand.Rand, ws *treeWorkspace) *Tree {
	b := &treeBuilder{}
	m := b.initUnits(ss, cfg, rng, ws)
	d, units := ss.d, b.units
	if ss.task == Classification || useFlatKernel(b.mtry, d, m) {
		b.scols = ss.cols
		b.flatRoot()
		return b.tree
	}

	b.plane, b.unitPlane, b.planes = ss.plane, ss.unitPlane, ss.planes
	ws.reserveOrders(m, d, len(ss.ordered), ss.planes)
	copy(ws.scols, ss.cols)
	cnt, unitOf := ws.cnt, ws.unitOf
	for s, j := range ss.ordered {
		gcol := ss.cols[j].v
		tcol := ws.colv[s*units : (s+1)*units]
		tord := ws.orders[s*units : (s+1)*units]
		w := 0
		for _, r := range ss.cols[j].ord {
			if cnt[r] == 0 {
				continue
			}
			u := unitOf[r]
			tord[w] = u
			tcol[u] = gcol[r]
			w++
		}
		ws.scols[j] = SplitColumn{v: tcol}
	}
	if p := ss.unitPlane; p >= 0 {
		for u, pos := 0, ws.orders[p*units:(p+1)*units]; u < units; u++ {
			pos[u] = int32(u)
		}
	}
	b.scols = ws.scols
	b.grow(0, units, 0)
	// The headers of columns without a copy alias the forest's shared split
	// set; a pooled workspace must not keep it alive.
	clear(ws.scols)
	return b.tree
}

// initUnits sets b up for one tree over the bootstrap sample given as per-row
// multiplicities ws.cnt — its units the drawn rows in ascending row order,
// with their targets (or labels) and multiplicities, and the unit→row map
// when the tree reads shared columns — and returns the sample count m = Σcnt.
func (b *treeBuilder) initUnits(ss *splitSet, cfg TreeConfig, rng *rand.Rand, ws *treeWorkspace) int {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	n, d := ss.n, ss.d
	cnt := ws.cnt
	m, units := 0, 0
	for _, c := range cnt[:n] {
		if c > 0 {
			m += int(c)
			units++
		}
	}
	*b = treeBuilder{
		cfg:     cfg,
		rng:     rng,
		tree:    &Tree{importance: make([]float64, d)},
		task:    ss.task,
		classes: ss.classes,
		units:   units,
		d:       d,
		ws:      ws,
		ymean:   ss.ymean,
		groups:  ss.groups,
		twoOf:   ss.twoOf,
	}
	b.mtry = resolveMTry(cfg.MTry, d)
	ws.reserve(ss, m, d)
	if ss.groups != nil {
		ws.gsum = grow(ws.gsum, ss.gsize)
		ws.gseen = grow(ws.gseen, len(ss.groups))
		clear(ws.gseen)
	}
	if ss.task == Classification || useFlatKernel(b.mtry, d, m) || ss.groups != nil {
		ws.rowOf = grow(ws.rowOf, m)
		b.rowOf = ws.rowOf
	}
	ws.unitOf = grow(ws.unitOf, n)
	unitOf := ws.unitOf
	u := 0
	for r, c := range cnt[:n] {
		if c == 0 {
			continue
		}
		unitOf[r] = int32(u)
		if b.rowOf != nil {
			b.rowOf[u] = int32(r)
		}
		ws.ys[u] = ss.ys[r]
		if ss.labels != nil {
			ws.labels[u] = ss.labels[r]
		}
		ws.wt[u] = float64(c)
		u++
	}

	return m
}

// sortOrder sorts ord in place by (key[ord[i]], ord[i]) ascending — the
// index tie-break makes the relation a total order over distinct positions,
// so the result is unique and any correct sort is deterministic. It is a
// handwritten introsort specialized to float64 keys and int32 payloads; it
// presorts split columns and sorts a flat regression node's units.
func sortOrder(key []float64, ord []int32) {
	limit := 1
	for n := len(ord); n > 0; n >>= 1 {
		limit += 2
	}
	introSortOrder(key, ord, limit)
}

func orderLess(key []float64, a, b int32) bool {
	ka, kb := key[a], key[b]
	return ka < kb || (ka == kb && a < b)
}

func introSortOrder(key []float64, ord []int32, limit int) {
	for len(ord) > 16 {
		if limit == 0 {
			heapSortOrder(key, ord)
			return
		}
		limit--
		// Median-of-three pivot, moved to ord[0].
		mid, last := len(ord)/2, len(ord)-1
		if orderLess(key, ord[mid], ord[0]) {
			ord[mid], ord[0] = ord[0], ord[mid]
		}
		if orderLess(key, ord[last], ord[0]) {
			ord[last], ord[0] = ord[0], ord[last]
		}
		if orderLess(key, ord[last], ord[mid]) {
			ord[last], ord[mid] = ord[mid], ord[last]
		}
		ord[0], ord[mid] = ord[mid], ord[0]
		pv := ord[0]
		i := 0
		for j := 1; j < len(ord); j++ {
			if orderLess(key, ord[j], pv) {
				i++
				ord[i], ord[j] = ord[j], ord[i]
			}
		}
		ord[0], ord[i] = ord[i], ord[0]
		// Recurse into the smaller half, loop on the larger.
		if i < len(ord)-i-1 {
			introSortOrder(key, ord[:i], limit)
			ord = ord[i+1:]
		} else {
			introSortOrder(key, ord[i+1:], limit)
			ord = ord[:i]
		}
	}
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && orderLess(key, v, ord[j]) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = v
	}
}

func heapSortOrder(key []float64, ord []int32) {
	n := len(ord)
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && orderLess(key, ord[child], ord[child+1]) {
				child++
			}
			if !orderLess(key, ord[root], ord[child]) {
				return
			}
			ord[root], ord[child] = ord[child], ord[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		ord[0], ord[i] = ord[i], ord[0]
		siftDown(0, i)
	}
}

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
	vbuf    []float64     // node values in sorted order (flat sort keys, class scan input)
	uval    []float64     // a flat node's feature values by unit (regression, columns read through rowOf)
	lbuf    []int32       // node labels in sorted order (classification)
	wbuf    []float64     // node multiplicities in sorted order (classification)
	tcnt    []float64     // the node's class counts (nodeStats)
	lcnt    []float64     // class-count scratch (left)
	rcnt    []float64     // class-count scratch (right; a two-valued column's high side)
	rbuf    []float64     // one-row gather scratch
	feats   []int         // feature permutation for MTry shuffles
	samples []int32       // flat-kernel unit lists, partitioned in place
	pay     []int32       // flat-kernel sort payload (units)
	cnt     []int32       // bootstrap multiplicity per dataset row (forest path)
	rowOf   []int32       // unit → dataset row (forest path)
	scols   []SplitColumn // per-feature column headers handed to the builder
	// Presorted-kernel scratch.
	colv []float64 // d×u column-major feature values by unit
	// orders holds one u-long plane per feature — its units, value-sorted
	// per node range — and, when the tree has two-valued columns (whose own
	// planes then stay untouched), plane d: all units ascending per node
	// range, from which such a column's order is split on demand.
	orders []int32
	spill  []int32 // stable-partition scratch for right-bound units
	left   []uint8 // goes-left mask during a split (all-zero invariant)
	unitOf []int32 // unit per drawn dataset row (order derivation, counting scans)
	ncnt   []int32 // in-node multiplicity per dataset row (all-zero invariant)
}

// retained is the workspace's pooled footprint in bytes (slice capacities,
// not lengths); the d×m presorted-kernel planes dominate. It feeds the
// pool's retention cap so sweep-sized trees don't keep base-table-sized
// scratch alive.
func (ws *treeWorkspace) retained() int {
	f := cap(ws.ys) + cap(ws.wt) + cap(ws.vbuf) + cap(ws.uval) + cap(ws.wbuf) +
		cap(ws.tcnt) + cap(ws.lcnt) + cap(ws.rcnt) + cap(ws.rbuf) + cap(ws.colv)
	i := cap(ws.labels) + cap(ws.lbuf) + cap(ws.samples) + cap(ws.pay) + cap(ws.cnt) +
		cap(ws.rowOf) + cap(ws.orders) + cap(ws.spill) + cap(ws.unitOf) + cap(ws.ncnt)
	return f*8 + i*4 + cap(ws.feats)*8 + cap(ws.left) + cap(ws.scols)*splitColumnBytes
}

var treeScratch = parallel.NewScratchPoolSized(
	func() *treeWorkspace { return &treeWorkspace{} },
	(*treeWorkspace).retained,
)

// reserve sizes the common scratch for m samples, d features, and k classes
// (0 for regression), growing allocations only when needed, and resets the
// feature permutation to the identity (each tree starts its Fisher-Yates
// state fresh, as the per-node sorting kernel did).
func (ws *treeWorkspace) reserve(m, d, k int) {
	ws.ys = growFloat(ws.ys, m)
	ws.wt = growFloat(ws.wt, m)
	ws.vbuf = growFloat(ws.vbuf, m)
	ws.rbuf = growFloat(ws.rbuf, d)
	ws.samples = growInt32(ws.samples, m)
	ws.pay = growInt32(ws.pay, m)
	if k > 0 {
		ws.labels = growInt32(ws.labels, m)
		ws.lbuf = growInt32(ws.lbuf, m)
		ws.wbuf = growFloat(ws.wbuf, m)
		ws.tcnt = growFloat(ws.tcnt, k)
		ws.lcnt = growFloat(ws.lcnt, k)
		ws.rcnt = growFloat(ws.rcnt, k)
	} else {
		ws.uval = growFloat(ws.uval, m)
	}
	if cap(ws.feats) < d {
		ws.feats = make([]int, d)
	}
	ws.feats = ws.feats[:d]
	for j := range ws.feats {
		ws.feats[j] = j
	}
}

// reserveCols sizes the per-tree column store.
func (ws *treeWorkspace) reserveCols(m, d int) {
	ws.colv = growFloat(ws.colv, m*d)
}

// reserveColHeaders sizes the per-feature column-header slice.
func (ws *treeWorkspace) reserveColHeaders(d int) {
	if cap(ws.scols) < d {
		ws.scols = make([]SplitColumn, d)
	}
	ws.scols = ws.scols[:d]
}

// reserveOrders sizes the presorted kernel's order planes and partition
// scratch.
func (ws *treeWorkspace) reserveOrders(m, planes int) {
	ws.orders = growInt32(ws.orders, m*planes)
	ws.spill = growInt32(ws.spill, m)
	if cap(ws.left) < m {
		ws.left = make([]uint8, m)
	}
	ws.left = ws.left[:m]
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// splitSet is a dataset's shared presort scaffold: column-major feature
// values plus — in the presorted regime — per-feature row indices sorted by
// (value, row). FitForest builds it once; every bootstrap tree either
// derives its per-tree orders from the global ones with a linear counting
// scan (presorted regime) or reads the shared columns through its bootstrap
// row map and sorts nodes flat. A forest whose trees start flat skips the
// global orders entirely.
type splitSet struct {
	n, d    int
	task    Task
	classes int
	cols    []SplitColumn // per-feature values (+ (value,row) orders when presorted)
	anyTwo  bool          // some column is two-valued
	ys      []float64     // targets; for regression centred, ys[r] = Y[r] - ymean
	ymean   float64
	labels  []int32 // class codes (classification)
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
// and, when needOrders is set (the presorted regime), sorts every column that
// is not two-valued once — all on the worker pool (columns are independent,
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
	})
	ss.markTwo()
	return ss
}

// markTwo records whether any of the set's columns is two-valued.
func (ss *splitSet) markTwo() {
	for i := range ss.cols {
		if ss.cols[i].mask != nil {
			ss.anyTwo = true
			return
		}
	}
}

// fitTreeFromSplitSet grows one tree over a bootstrap sample given as
// per-row multiplicities ws.cnt (Σcnt samples total). The tree's units are
// the rows the bootstrap drew, in ascending row order, each weighted by its
// multiplicity — so in the presorted regime, emitting drawn rows in global
// value order yields per-tree orders already sorted by (value, unit) without
// comparing a single value; in the flat regime the tree reads the shared
// columns through the unit→row map and no per-tree columns are materialized
// at all. In either regime a two-valued column is read in place, through
// that map and its byte mask, and gets neither an order nor a copy.
func fitTreeFromSplitSet(ss *splitSet, cfg TreeConfig, rng *rand.Rand, ws *treeWorkspace) *Tree {
	b := &treeBuilder{}
	m := b.initUnits(ss, cfg, rng, ws)
	n, d, units := ss.n, ss.d, b.units
	cnt, unitOf := ws.cnt, ws.unitOf
	if useFlatKernel(b.mtry, d, m) {
		b.scols, b.ssn = ss.cols, n
		// Large classification nodes can skip the per-node sort when a
		// feature carries a global (value, row) order: walking that order and
		// emitting each in-node row reproduces the sort's (value, unit)
		// sequence exactly. Interior nodes register their membership as
		// per-row multiplicities in ws.ncnt (zeroed by make and kept all-zero
		// by growFlat's mark/clear pairing), so the scan skips out-of-node
		// rows without per-unit mask checks. (A regression forest — mtry =
		// d/3 — goes flat only at m ≈ 4, where sorting is the cheaper side.)
		for _, col := range ss.cols {
			if col.ord != nil && ss.task == Classification {
				b.canScan = true
				ws.ncnt = growInt32(ws.ncnt, n)
				break
			}
		}
		b.flatRoot()
		return b.tree
	}

	b.planes = d
	if ss.anyTwo {
		b.planes, b.copied = d+1, true
	}
	ws.reserveCols(m, d)
	ws.reserveOrders(m, b.planes)
	ws.reserveColHeaders(d)
	for j := 0; j < d; j++ {
		if ss.cols[j].mask != nil {
			ws.scols[j] = ss.cols[j]
			continue
		}
		gcol := ss.cols[j].v
		tcol := ws.colv[j*units : (j+1)*units]
		tord := ws.orders[j*units : (j+1)*units]
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
	if ss.anyTwo {
		for u, pos := 0, ws.orders[d*units:(d+1)*units]; u < units; u++ {
			pos[u] = int32(u)
		}
	}
	b.scols = ws.scols
	b.grow(0, units, 0)
	// The headers of columns read in place alias the forest's shared split
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
	}
	b.mtry = resolveMTry(cfg.MTry, d)
	ws.reserve(m, d, b.classScratch())
	if useFlatKernel(b.mtry, d, m) || ss.anyTwo {
		ws.rowOf = growInt32(ws.rowOf, m)
		b.rowOf = ws.rowOf
	}
	ws.unitOf = growInt32(ws.unitOf, n)
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
// handwritten introsort specialized to float64 keys and int32 payloads,
// replacing sort.Slice's interface comparator in the kernel's setup loop.
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

// sortKV sorts the parallel (key, payload) arrays in place by (key, payload)
// ascending — same total order as sortOrder, over materialized keys. The
// flat kernel calls it once per (node, candidate feature).
func sortKV(key []float64, pay []int32) {
	limit := 1
	for n := len(key); n > 0; n >>= 1 {
		limit += 2
	}
	introSortKV(key, pay, limit)
}

func kvLess(ka float64, pa int32, kb float64, pb int32) bool {
	return ka < kb || (ka == kb && pa < pb)
}

func introSortKV(key []float64, pay []int32, limit int) {
	for len(key) > 16 {
		if limit == 0 {
			heapSortKV(key, pay)
			return
		}
		limit--
		mid, last := len(key)/2, len(key)-1
		if kvLess(key[mid], pay[mid], key[0], pay[0]) {
			key[mid], key[0] = key[0], key[mid]
			pay[mid], pay[0] = pay[0], pay[mid]
		}
		if kvLess(key[last], pay[last], key[0], pay[0]) {
			key[last], key[0] = key[0], key[last]
			pay[last], pay[0] = pay[0], pay[last]
		}
		if kvLess(key[last], pay[last], key[mid], pay[mid]) {
			key[last], key[mid] = key[mid], key[last]
			pay[last], pay[mid] = pay[mid], pay[last]
		}
		key[0], key[mid] = key[mid], key[0]
		pay[0], pay[mid] = pay[mid], pay[0]
		pk, pp := key[0], pay[0]
		i := 0
		for j := 1; j < len(key); j++ {
			if kvLess(key[j], pay[j], pk, pp) {
				i++
				key[i], key[j] = key[j], key[i]
				pay[i], pay[j] = pay[j], pay[i]
			}
		}
		key[0], key[i] = key[i], key[0]
		pay[0], pay[i] = pay[i], pay[0]
		if i < len(key)-i-1 {
			introSortKV(key[:i], pay[:i], limit)
			key, pay = key[i+1:], pay[i+1:]
		} else {
			introSortKV(key[i+1:], pay[i+1:], limit)
			key, pay = key[:i], pay[:i]
		}
	}
	for i := 1; i < len(key); i++ {
		kv, pv := key[i], pay[i]
		j := i - 1
		for j >= 0 && kvLess(kv, pv, key[j], pay[j]) {
			key[j+1], pay[j+1] = key[j], pay[j]
			j--
		}
		key[j+1], pay[j+1] = kv, pv
	}
}

func heapSortKV(key []float64, pay []int32) {
	n := len(key)
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && kvLess(key[child], pay[child], key[child+1], pay[child+1]) {
				child++
			}
			if !kvLess(key[root], pay[root], key[child], pay[child]) {
				return
			}
			key[root], key[child] = key[child], key[root]
			pay[root], pay[child] = pay[child], pay[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		key[0], key[i] = key[i], key[0]
		pay[0], pay[i] = pay[i], pay[0]
		siftDown(0, i)
	}
}

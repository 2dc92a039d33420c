package ml

import (
	"math"
	"sync"
	"unsafe"
)

// SplitColumn is one feature column of a split set: the column's values over
// a fixed row set, plus what the split kernel needs to walk them in
// (value, row) order — for most columns the row indices sorted that way, for
// a two-valued column (every one-hot column) nothing but a byte per row
// saying which of its two values the row holds: its order over any row set is
// that set ascending, lows first, then highs. A SplitColumn is immutable once
// published: the split kernel only reads it, so one column can back any
// number of concurrently fitted forests over the same rows.
type SplitColumn struct {
	v   []float64
	ord []int32 // rows sorted by (value, row); nil when not presorted
	// mask is non-nil exactly when the column is two-valued: mask[r] is 1
	// where v[r] == hi and 0 where v[r] == lo.
	mask   []uint8
	lo, hi float64
}

// splitColumnBytes is a SplitColumn header's size (workspace accounting).
const splitColumnBytes = int(unsafe.Sizeof(SplitColumn{}))

// classifyTwo marks the column two-valued when its values hold exactly two
// bit patterns, both finite, with lo < hi as floats — so a NaN, an infinity
// or a -0/+0 pair leaves the column on the ordered path, where the kernel's
// float comparisons already say what happens to them.
func (c *SplitColumn) classifyTwo() {
	if len(c.v) == 0 {
		return
	}
	a := math.Float64bits(c.v[0])
	b := a
	for _, x := range c.v {
		if xb := math.Float64bits(x); xb != a && xb != b {
			if b != a {
				return // a third pattern
			}
			b = xb
		}
	}
	lo, hi := math.Float64frombits(a), math.Float64frombits(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return
	}
	c.lo, c.hi = lo, hi
	c.mask = make([]uint8, len(c.v))
	for r, x := range c.v {
		if x == hi {
			c.mask[r] = 1
		}
	}
}

// NewSplitColumn wraps caller-owned buffers as a split column. When ord is
// non-nil it must have len(values) entries; unless the column turns out
// two-valued (which needs no order) it is filled in place with the
// (value, row)-sorted permutation — the same unique total order the split
// kernel's own presort produces, so a caller-presorted column is
// indistinguishable from a cache-built one. Pass a nil ord for a values-only
// column (the flat kernel then sorts nodes on demand).
func NewSplitColumn(values []float64, ord []int32) SplitColumn {
	c := SplitColumn{v: values}
	c.classifyTwo()
	if ord != nil {
		c.presort(ord[:len(values)])
	}
	return c
}

// presort gives a classified column its (value, row) order — in buf, or in a
// fresh buffer when buf is nil — unless it is two-valued and needs none.
func (c *SplitColumn) presort(buf []int32) {
	if c.mask != nil {
		return
	}
	if buf == nil {
		buf = make([]int32, len(c.v))
	}
	for i := range buf {
		buf[i] = int32(i)
	}
	sortOrder(c.v, buf)
	c.ord = buf
}

// Presorted reports whether the column can be walked in (value, row) order
// without sorting: it carries that order, or is two-valued and needs none.
func (c SplitColumn) Presorted() bool { return c.ord != nil || c.mask != nil }

// SplitCacheStats reports a cache's column traffic: misses are column
// requests that had to build (gather values and/or presort), hits are
// requests served entirely from already-built state.
type SplitCacheStats struct {
	Hits, Misses int64
}

// SplitCache is a run-level store of presorted split columns over one
// dataset's rows. Where the per-forest split set dies with its forest, the
// cache outlives every forest fitted during a run: the K RIFS repetitions
// and the threshold sweep's nested forests all draw the immutable real
// columns from here and pay the gather + presort exactly once per run.
//
// Builds are serialized by a mutex and the (value, row) sort is a unique
// total order, so the cached columns are identical no matter which caller
// builds them first or how many workers race to ask. For deterministic
// hit/miss counts, prewarm the cache (one Columns call for every index)
// before fanning work out to the pool.
type SplitCache struct {
	ds      *Dataset
	n       int
	task    Task
	classes int
	ys      []float64
	labels  []int32

	mu     sync.Mutex
	cols   []SplitColumn
	valsOK []bool
	ordsOK []bool
	stats  SplitCacheStats
}

// NewSplitCache prepares an empty cache over ds's rows. Columns build
// lazily; ys and class labels are captured eagerly (they are shared by every
// view). ds must stay alive and unmodified for the cache's lifetime.
func NewSplitCache(ds *Dataset) *SplitCache {
	c := &SplitCache{
		ds:      ds,
		n:       ds.N,
		task:    ds.Task,
		classes: ds.Classes,
		ys:      ds.Y,
		cols:    make([]SplitColumn, ds.D),
		valsOK:  make([]bool, ds.D),
		ordsOK:  make([]bool, ds.D),
	}
	if ds.Task == Classification {
		c.labels = make([]int32, ds.N)
		for i := 0; i < ds.N; i++ {
			c.labels[i] = int32(ds.Label(i))
		}
	}
	return c
}

// Columns returns the cached split columns for the given source-column
// indices, building any that are missing (values always; orders only when
// withOrders). The returned slice is freshly allocated; the columns it holds
// are shared and immutable.
func (c *SplitCache) Columns(idx []int, withOrders bool) []SplitColumn {
	out := make([]SplitColumn, len(idx))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, j := range idx {
		built := false
		if !c.valsOK[j] {
			v := make([]float64, c.n)
			for r := 0; r < c.n; r++ {
				v[r] = c.ds.At(r, j)
			}
			c.cols[j] = NewSplitColumn(v, nil)
			c.valsOK[j] = true
			built = true
		}
		if withOrders && !c.ordsOK[j] {
			c.cols[j].presort(nil)
			c.ordsOK[j] = true
			built = true
		}
		if built {
			c.stats.Misses++
		} else {
			c.stats.Hits++
		}
		out[i] = c.cols[j]
	}
	return out
}

// Stats returns the cache's hit/miss counters so far.
func (c *SplitCache) Stats() SplitCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// View assembles a per-forest split view: cols (typically cached real
// columns, in dataset column order) followed by extra per-forest columns
// (e.g. a repetition's freshly injected noise columns). The view borrows the
// cache's row metadata; the dataset it is attached to must therefore share
// this cache's rows and targets.
func (c *SplitCache) View(cols []SplitColumn, extra []SplitColumn) *SplitView {
	all := make([]SplitColumn, 0, len(cols)+len(extra))
	all = append(all, cols...)
	all = append(all, extra...)
	ss := &splitSet{
		n:       c.n,
		d:       len(all),
		task:    c.task,
		classes: c.classes,
		ys:      c.ys,
		labels:  c.labels,
		cols:    all,
	}
	ss.markTwo()
	return &SplitView{ss: ss}
}

// SplitView is an assembled column set ready to back forest fitting; attach
// it to a Dataset with AttachSplits. Views are cheap (column headers only)
// and immutable.
type SplitView struct {
	ss *splitSet
}

// NumColumns returns the number of columns in the view.
func (v *SplitView) NumColumns() int {
	if v == nil {
		return 0
	}
	return v.ss.d
}

// AttachSplits hands the dataset a prebuilt split view: FitForest (and the
// flattened FitForests scheduler) will fit trees straight from the view's
// columns instead of gathering and presorting the dataset again. The view
// must describe exactly this dataset's columns over exactly its rows — same
// values, same order; the fitted forest is then bit-identical to one grown
// without the view. Attach nil to detach. The attachment is advisory: a
// shape mismatch makes FitForest fall back to its own build.
func (ds *Dataset) AttachSplits(v *SplitView) {
	if v == nil {
		ds.splits = nil
		return
	}
	ds.splits = v.ss
}

// attachedSplits returns the dataset's split set when one is attached and
// structurally consistent with ds (and, when orders are required, fully
// presorted); nil otherwise.
func (ds *Dataset) attachedSplits(needOrders bool) *splitSet {
	ss := ds.splits
	if ss == nil || ss.n != ds.N || ss.d != ds.D || ss.task != ds.Task {
		return nil
	}
	if needOrders {
		for _, col := range ss.cols {
			if !col.Presorted() {
				return nil
			}
		}
	}
	return ss
}

package ml

import (
	"math"
	"unsafe"

	"github.com/arda-ml/arda/internal/parallel"
)

// SplitColumn is one feature column of a split set: the column's values over
// a fixed row set, plus what the split kernel needs to walk them in
// (value, row) order — for most columns the row indices sorted that way (and
// for classification each row's rank code), for a two-valued column (every
// one-hot column) nothing but a byte per row saying which of its two values
// the row holds: its order over any row set is that set ascending, lows
// first, then highs. A SplitColumn is immutable once published: the split
// kernel only reads it, so one column can back any number of concurrently
// fitted forests over the same rows.
type SplitColumn struct {
	v   []float64
	ord []int32 // rows sorted by (value, row); nil when not presorted
	// codes are the column's rank codes, derived from ord (rank) for
	// classification forests only; nil otherwise.
	codes *rankCodes
	// mask is non-nil exactly when the column is two-valued: mask[r] is 1
	// where v[r] == hi and 0 where v[r] == lo.
	mask   []uint8
	lo, hi float64
}

// rankCodes are a column's distinct values ascending (vals; values equal as
// floats, -0 and +0, are one) and each row's index into them, in the
// narrowest width that holds the distinct count — exactly one of u8, u16,
// u32 is set — so that the codes a histogram pass reads stay in cache.
type rankCodes struct {
	u8   []uint8
	u16  []uint16
	u32  []uint32
	vals []float64
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
// indistinguishable from one PresortColumns builds. Pass a nil ord for a
// values-only column (the flat kernel then sorts nodes on demand).
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

// rank gives a presorted column its rank codes, which classification trees
// score from, unless it has them. A row opens a new code when its value
// differs from the previous row's in (value, row) order; a code's value is
// its last row's.
func (c *SplitColumn) rank() {
	if c.ord == nil || c.codes != nil {
		return
	}
	distinct := 0
	for i, r := range c.ord {
		if i == 0 || c.v[r] != c.v[c.ord[i-1]] {
			distinct++
		}
	}
	rc := &rankCodes{vals: make([]float64, distinct)}
	switch {
	case distinct <= 1<<8:
		rc.u8 = codesOf(c, rc.vals, make([]uint8, len(c.ord)))
	case distinct <= 1<<16:
		rc.u16 = codesOf(c, rc.vals, make([]uint16, len(c.ord)))
	default:
		rc.u32 = codesOf(c, rc.vals, make([]uint32, len(c.ord)))
	}
	c.codes = rc
}

// codesOf sets each row's code to its rank along c's order and each rank's
// value in vals to that of its last row, and returns code.
func codesOf[C uint8 | uint16 | uint32](c *SplitColumn, vals []float64, code []C) []C {
	k := 0
	for i, r := range c.ord {
		if i > 0 && c.v[r] != c.v[c.ord[i-1]] {
			k++
		}
		code[r] = C(k)
		vals[k] = c.v[r]
	}
	return code
}

// Presorted reports whether the column can be walked in (value, row) order
// without sorting: it carries that order, or is two-valued and needs none.
func (c SplitColumn) Presorted() bool { return c.ord != nil || c.mask != nil }

// PresortColumns builds every column of ds as a split column carrying its
// (value, row) order and, for classification, its rank codes (a two-valued
// column needs neither), on up to workers goroutines (0 = process-wide
// maximum). Columns are independent and the order is a unique total order,
// so the result is identical at any worker count. The columns are immutable: any number of views over ds's rows, and
// the forests fitted through them, can share them.
func PresortColumns(ds *Dataset, workers int) []SplitColumn {
	cols := make([]SplitColumn, ds.D)
	parallel.ForEach(workers, ds.D, func(j int) {
		v := make([]float64, ds.N)
		for r := range v {
			v[r] = ds.At(r, j)
		}
		c := NewSplitColumn(v, nil)
		c.presort(nil)
		if ds.Task == Classification {
			c.rank()
		}
		cols[j] = c
	})
	return cols
}

// NewSplitView assembles a split view over ds's rows and targets: cols
// (typically PresortColumns's shared columns, in dataset column order)
// followed by extra per-forest columns (e.g. a repetition's freshly injected
// noise columns). The view backs any dataset with ds's rows and targets
// whose columns are exactly cols then extra.
func NewSplitView(ds *Dataset, cols, extra []SplitColumn) *SplitView {
	all := make([]SplitColumn, 0, len(cols)+len(extra))
	all = append(all, cols...)
	all = append(all, extra...)
	if ds.Task == Classification {
		for j := range all {
			all[j].rank() // the view's copy of a column presorted without codes
		}
	}
	ss := &splitSet{
		n:       ds.N,
		d:       len(all),
		task:    ds.Task,
		classes: ds.Classes,
		cols:    all,
	}
	ss.setTargets(ds)
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

// AttachSplits hands the dataset a prebuilt split view: FitForest will fit
// trees straight from the view's columns instead of gathering and presorting
// the dataset again. The view
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

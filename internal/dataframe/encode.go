package dataframe

import (
	"fmt"
	"math"
	"sort"
)

// MaxOneHotCardinality bounds the number of indicator columns produced when
// binarizing a categorical column. Categories beyond the most frequent
// MaxOneHotCardinality-1 are pooled into a single "…=<other>" indicator, so a
// high-cardinality key column cannot explode the feature space.
const MaxOneHotCardinality = 32

// binarizePlan computes the one-hot layout of a categorical column: the
// produced indicator names and remap, where remap[code] is the indicator
// index the code contributes to (-1 for codes absent from the data). The plan
// is a pure function of the column's codes and dictionary, which is what
// makes it cacheable across repeated encodings of an unchanged column.
func binarizePlan(c *CategoricalColumn) (names []string, remap []int) {
	counts := make([]int, len(c.Dict))
	for _, code := range c.Codes {
		if code >= 0 {
			counts[code]++
		}
	}
	order := make([]int, len(c.Dict))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	remap = make([]int, len(c.Dict))
	names = make([]string, 0, MaxOneHotCardinality)
	other := -1
	for rank, code := range order {
		if counts[code] == 0 {
			remap[code] = -1
			continue
		}
		if rank < MaxOneHotCardinality-1 || len(c.Dict) <= MaxOneHotCardinality {
			remap[code] = len(names)
			names = append(names, fmt.Sprintf("%s=%s", c.Name(), c.Dict[code]))
		} else {
			if other < 0 {
				other = len(names)
				names = append(names, fmt.Sprintf("%s=<other>", c.Name()))
			}
			remap[code] = other
		}
	}
	return names, remap
}

// Binarize converts a categorical column into a set of 0/1 numeric indicator
// columns named "<col>=<value>". Rows with missing values are 0 in every
// indicator. At most MaxOneHotCardinality indicators are produced; rarer
// categories share an "<col>=<other>" indicator.
func Binarize(c *CategoricalColumn) []*NumericColumn {
	names, remap := binarizePlan(c)
	out := make([]*NumericColumn, len(names))
	for j := range out {
		out[j] = NewNumeric(names[j], make([]float64, c.Len()))
	}
	for i, code := range c.Codes {
		if code < 0 {
			continue
		}
		if k := remap[code]; k >= 0 {
			out[k].Values[i] = 1
		}
	}
	return out
}

// NumericView is a table rendered as a dense design matrix: time columns
// become float64 Unix seconds, categorical columns are binarized, numeric
// columns pass through. Missing numeric entries remain NaN (impute before
// training).
type NumericView struct {
	// Names holds the produced feature names, one per matrix column.
	Names []string
	// Data is the n×d design matrix in row-major order.
	Data []float64
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
}

// At returns entry (i, j) of the design matrix.
func (v *NumericView) At(i, j int) float64 { return v.Data[i*v.Cols+j] }

// Col extracts column j into dst (allocated if nil) and returns it.
func (v *NumericView) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, v.Rows)
	}
	for i := 0; i < v.Rows; i++ {
		dst[i] = v.Data[i*v.Cols+j]
	}
	return dst
}

// ToNumericView converts the table into a design matrix, excluding the named
// columns (typically the target and join keys). It lays out the matrix
// columns in one pass over the table's columns, then fills each block with a
// direct typed loop — no per-element closure dispatch, and categorical blocks
// write only their 1s into the zeroed matrix instead of materializing
// indicator columns first.
func (t *Table) ToNumericView(exclude ...string) *NumericView {
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}
	type block struct {
		col   Column
		name  string   // single-column blocks
		names []string // categorical blocks (indicator names)
		remap []int    // categorical blocks
		off   int      // first matrix column of the block
	}
	var blocks []block
	d := 0
	for _, c := range t.cols {
		if skip[c.Name()] {
			continue
		}
		switch col := c.(type) {
		case *NumericColumn, *TimeColumn:
			blocks = append(blocks, block{col: c, name: c.Name(), off: d})
			d++
		case *CategoricalColumn:
			names, remap := binarizePlan(col)
			blocks = append(blocks, block{col: c, names: names, remap: remap, off: d})
			d += len(names)
		}
	}
	n := t.NumRows()
	view := &NumericView{
		Names: make([]string, d),
		Data:  make([]float64, n*d),
		Rows:  n,
		Cols:  d,
	}
	for _, b := range blocks {
		switch col := b.col.(type) {
		case *NumericColumn:
			view.Names[b.off] = b.name
			j := b.off
			for i, v := range col.Values {
				view.Data[i*d+j] = v
			}
		case *TimeColumn:
			view.Names[b.off] = b.name
			j := b.off
			for i, v := range col.Unix {
				if v == MissingTime {
					view.Data[i*d+j] = math.NaN()
				} else {
					view.Data[i*d+j] = float64(v)
				}
			}
		case *CategoricalColumn:
			copy(view.Names[b.off:], b.names)
			for i, code := range col.Codes {
				if code < 0 {
					continue
				}
				if k := b.remap[code]; k >= 0 {
					view.Data[i*d+b.off+k] = 1
				}
			}
		}
	}
	return view
}

// TargetVector extracts the named column as a float64 label/target vector.
// Numeric and time columns convert directly; categorical columns use their
// dictionary codes (class labels 0..k-1). Missing entries are NaN.
func (t *Table) TargetVector(name string) ([]float64, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("dataframe: table %q has no target column %q", t.name, name)
	}
	out := make([]float64, c.Len())
	switch col := c.(type) {
	case *NumericColumn:
		copy(out, col.Values)
	case *TimeColumn:
		for i, v := range col.Unix {
			if v == MissingTime {
				out[i] = math.NaN()
			} else {
				out[i] = float64(v)
			}
		}
	case *CategoricalColumn:
		for i, code := range col.Codes {
			if code < 0 {
				out[i] = math.NaN()
			} else {
				out[i] = float64(code)
			}
		}
	}
	return out, nil
}

// SelectView returns a new view containing only the given column indices of v.
func (v *NumericView) SelectView(cols []int) *NumericView {
	out := &NumericView{
		Names: make([]string, len(cols)),
		Data:  make([]float64, v.Rows*len(cols)),
		Rows:  v.Rows,
		Cols:  len(cols),
	}
	for jj, j := range cols {
		out.Names[jj] = v.Names[j]
		for i := 0; i < v.Rows; i++ {
			out.Data[i*len(cols)+jj] = v.Data[i*v.Cols+j]
		}
	}
	return out
}

// AppendView returns a new view with the columns of b appended after those of
// a. The views must have the same number of rows.
func AppendView(a, b *NumericView) *NumericView {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dataframe: appending views with %d and %d rows", a.Rows, b.Rows))
	}
	d := a.Cols + b.Cols
	out := &NumericView{
		Names: make([]string, 0, d),
		Data:  make([]float64, a.Rows*d),
		Rows:  a.Rows,
		Cols:  d,
	}
	out.Names = append(out.Names, a.Names...)
	out.Names = append(out.Names, b.Names...)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*d:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*d+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	return out
}

// GatherRows returns a new view keeping only the given row indices.
func (v *NumericView) GatherRows(idx []int) *NumericView {
	out := &NumericView{
		Names: v.Names,
		Data:  make([]float64, len(idx)*v.Cols),
		Rows:  len(idx),
		Cols:  v.Cols,
	}
	for r, i := range idx {
		copy(out.Data[r*v.Cols:(r+1)*v.Cols], v.Data[i*v.Cols:(i+1)*v.Cols])
	}
	return out
}

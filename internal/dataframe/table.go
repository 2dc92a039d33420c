package dataframe

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a named collection of equal-length columns.
type Table struct {
	name   string
	cols   []Column
	byName map[string]int
}

// NewTable constructs a table from columns, which must all have equal length
// and distinct names.
func NewTable(name string, cols ...Column) (*Table, error) {
	t := &Table{name: name, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable is NewTable but panics on error; intended for tests and
// generators with statically-known shapes.
func MustNewTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the table's columns in order. The slice is shared; do not
// modify it.
func (t *Table) Columns() []Column { return t.cols }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name()
	}
	return names
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// HasColumn reports whether the named column exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// AddColumn appends a column. It errors if the name is taken or the length
// mismatches existing columns.
func (t *Table) AddColumn(c Column) error {
	if _, ok := t.byName[c.Name()]; ok {
		return fmt.Errorf("dataframe: table %q already has column %q", t.name, c.Name())
	}
	if len(t.cols) > 0 && c.Len() != t.NumRows() {
		return fmt.Errorf("dataframe: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.NumRows())
	}
	t.byName[c.Name()] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// DropColumn removes the named column; it is a no-op if the column is absent.
func (t *Table) DropColumn(name string) {
	i, ok := t.byName[name]
	if !ok {
		return
	}
	t.cols = append(t.cols[:i], t.cols[i+1:]...)
	delete(t.byName, name)
	for j := i; j < len(t.cols); j++ {
		t.byName[t.cols[j].Name()] = j
	}
}

// Project returns a new table containing only the named columns, in the given
// order. It errors if any column is absent.
func (t *Table) Project(names ...string) (*Table, error) {
	out := &Table{name: t.name, byName: make(map[string]int, len(names))}
	for _, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: table %q has no column %q", t.name, n)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gather returns a new table whose row j is this table's row idx[j]; an index
// of -1 produces an all-missing row. Dictionary and name metadata are shared.
func (t *Table) Gather(idx []int) *Table {
	out := &Table{name: t.name, byName: make(map[string]int, len(t.cols))}
	for _, c := range t.cols {
		if err := out.AddColumn(c.Gather(idx)); err != nil {
			// Gather preserves names and lengths, so this cannot happen.
			panic(err)
		}
	}
	return out
}

// Head returns a new table with the first n rows (or all rows if n exceeds
// the row count).
func (t *Table) Head(n int) *Table {
	if n > t.NumRows() {
		n = t.NumRows()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return t.Gather(idx)
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{name: t.name, byName: make(map[string]int, len(t.cols))}
	for _, c := range t.cols {
		if err := out.AddColumn(c.Clone()); err != nil {
			panic(err)
		}
	}
	return out
}

// RenamePrefixed returns a copy of the table in which every column except
// those in keep is renamed to prefix+name. Used when joining to avoid column
// collisions between tables.
func (t *Table) RenamePrefixed(prefix string, keep map[string]bool) *Table {
	out := &Table{name: t.name, byName: make(map[string]int, len(t.cols))}
	for _, c := range t.cols {
		nc := c
		if !keep[c.Name()] {
			nc = c.WithName(prefix + c.Name())
		}
		if err := out.AddColumn(nc); err != nil {
			panic(err)
		}
	}
	return out
}

// MissingCells returns the total number of missing entries across all columns.
func (t *Table) MissingCells() int {
	n := 0
	for _, c := range t.cols {
		n += c.MissingCount()
	}
	return n
}

// String renders a compact schema description, e.g.
// "taxi[date:time trips:numeric zone:categorical] (120 rows)".
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[", t.name)
	for i, c := range t.cols {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%s", c.Name(), c.Kind())
	}
	fmt.Fprintf(&b, "] (%d rows)", t.NumRows())
	return b.String()
}

// SortedByTime returns row indices of the table ordered by the named time or
// numeric column ascending, with missing entries last. It errors if the
// column is absent or categorical.
func (t *Table) SortedByTime(col string) ([]int, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("dataframe: table %q has no column %q", t.name, col)
	}
	key, err := NumericKey(c)
	if err != nil {
		return nil, err
	}
	idx := make([]int, c.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, ok1 := key(idx[a])
		kb, ok2 := key(idx[b])
		if ok1 != ok2 {
			return ok1 // present before missing
		}
		return ka < kb
	})
	return idx, nil
}

// NumericKey returns an accessor mapping row index to a float64 ordering key
// for a numeric or time column, with a presence flag. Categorical columns
// are rejected.
func NumericKey(c Column) (func(i int) (float64, bool), error) {
	switch col := c.(type) {
	case *NumericColumn:
		return func(i int) (float64, bool) {
			if col.IsMissing(i) {
				return 0, false
			}
			return col.Values[i], true
		}, nil
	case *TimeColumn:
		return func(i int) (float64, bool) {
			if col.IsMissing(i) {
				return 0, false
			}
			return float64(col.Unix[i]), true
		}, nil
	default:
		return nil, fmt.Errorf("dataframe: column %q (%s) has no numeric ordering", c.Name(), c.Kind())
	}
}

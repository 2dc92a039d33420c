// Package dataframe implements the typed columnar table substrate that every
// other part of ARDA builds on: numeric, categorical and time columns with
// missing-value support, row gathering, CSV I/O with type inference, and
// conversion to numeric design matrices (with one-hot binarization of
// categoricals) for the learning and feature-selection layers.
package dataframe

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the logical type of a column.
type Kind int

const (
	// Numeric columns hold float64 values; missing entries are NaN.
	Numeric Kind = iota
	// Categorical columns hold dictionary-encoded strings; missing entries
	// have code -1.
	Categorical
	// Time columns hold Unix timestamps in seconds; missing entries are
	// MissingTime.
	Time
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MissingTime is the sentinel for a missing value in a time column.
const MissingTime = int64(math.MinInt64)

// Column is a named, typed vector of values with missing-value support.
// Implementations are NumericColumn, CategoricalColumn and TimeColumn.
type Column interface {
	// Name returns the column name.
	Name() string
	// WithName returns a copy of the column under a new name. The copy
	// shares backing storage with the original.
	WithName(name string) Column
	// Kind returns the column's logical type.
	Kind() Kind
	// Len returns the number of entries.
	Len() int
	// IsMissing reports whether entry i is missing.
	IsMissing(i int) bool
	// MissingCount returns the number of missing entries.
	MissingCount() int
	// Gather returns a new column whose entry j is this column's entry
	// idx[j]. An index of -1 produces a missing entry.
	Gather(idx []int) Column
	// StringAt formats entry i for display or CSV output; missing entries
	// format as the empty string.
	StringAt(i int) string
	// Clone returns a deep copy of the column.
	Clone() Column
}

// NumericColumn is a float64 column. Missing values are NaN.
type NumericColumn struct {
	name   string
	Values []float64
}

// NewNumeric constructs a numeric column over the given values. The slice is
// used directly, not copied.
func NewNumeric(name string, values []float64) *NumericColumn {
	return &NumericColumn{name: name, Values: values}
}

// Name returns the column name.
func (c *NumericColumn) Name() string { return c.name }

// WithName returns a shallow copy of the column under a new name.
func (c *NumericColumn) WithName(name string) Column {
	return &NumericColumn{name: name, Values: c.Values}
}

// Kind returns Numeric.
func (c *NumericColumn) Kind() Kind { return Numeric }

// Len returns the number of entries.
func (c *NumericColumn) Len() int { return len(c.Values) }

// IsMissing reports whether entry i is NaN.
func (c *NumericColumn) IsMissing(i int) bool { return math.IsNaN(c.Values[i]) }

// MissingCount returns the number of NaN entries.
func (c *NumericColumn) MissingCount() int {
	n := 0
	for _, v := range c.Values {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// Gather returns a new column gathering the given row indices; -1 yields NaN.
func (c *NumericColumn) Gather(idx []int) Column {
	out := make([]float64, len(idx))
	for j, i := range idx {
		if i < 0 {
			out[j] = math.NaN()
		} else {
			out[j] = c.Values[i]
		}
	}
	return &NumericColumn{name: c.name, Values: out}
}

// StringAt formats entry i; NaN formats as "".
func (c *NumericColumn) StringAt(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	return strconv.FormatFloat(c.Values[i], 'g', -1, 64)
}

// Clone returns a deep copy.
func (c *NumericColumn) Clone() Column {
	v := make([]float64, len(c.Values))
	copy(v, c.Values)
	return &NumericColumn{name: c.name, Values: v}
}

// CategoricalColumn is a dictionary-encoded string column. Codes index into
// Dict; a code of -1 marks a missing value.
type CategoricalColumn struct {
	name  string
	Codes []int
	Dict  []string
}

// presizeCap bounds the entries a dictionary's hash table is sized for up
// front: a column's length bounds its distinct values, but a long column may
// hold only a few.
const presizeCap = 1 << 12

// NewCategorical constructs a categorical column from raw string values,
// building the dictionary in first-appearance order. Empty strings become
// missing values.
func NewCategorical(name string, values []string) *CategoricalColumn {
	codes := make([]int, len(values))
	var dict []string
	index := make(map[string]int, min(len(values), presizeCap))
	for i, v := range values {
		if v == "" {
			codes[i] = -1
			continue
		}
		code, ok := index[v]
		if !ok {
			code = len(dict)
			dict = append(dict, v)
			index[v] = code
		}
		codes[i] = code
	}
	return &CategoricalColumn{name: name, Codes: codes, Dict: dict}
}

// NewCategoricalCodes constructs a categorical column directly from codes and
// a dictionary. The slices are used directly, not copied.
func NewCategoricalCodes(name string, codes []int, dict []string) *CategoricalColumn {
	return &CategoricalColumn{name: name, Codes: codes, Dict: dict}
}

// Name returns the column name.
func (c *CategoricalColumn) Name() string { return c.name }

// WithName returns a shallow copy of the column under a new name.
func (c *CategoricalColumn) WithName(name string) Column {
	return &CategoricalColumn{name: name, Codes: c.Codes, Dict: c.Dict}
}

// Kind returns Categorical.
func (c *CategoricalColumn) Kind() Kind { return Categorical }

// Len returns the number of entries.
func (c *CategoricalColumn) Len() int { return len(c.Codes) }

// IsMissing reports whether entry i has code -1.
func (c *CategoricalColumn) IsMissing(i int) bool { return c.Codes[i] < 0 }

// MissingCount returns the number of entries with code -1.
func (c *CategoricalColumn) MissingCount() int {
	n := 0
	for _, code := range c.Codes {
		if code < 0 {
			n++
		}
	}
	return n
}

// Gather returns a new column gathering the given row indices; -1 yields a
// missing entry. The dictionary is shared with the receiver.
func (c *CategoricalColumn) Gather(idx []int) Column {
	out := make([]int, len(idx))
	for j, i := range idx {
		if i < 0 {
			out[j] = -1
		} else {
			out[j] = c.Codes[i]
		}
	}
	return &CategoricalColumn{name: c.name, Codes: out, Dict: c.Dict}
}

// StringAt formats entry i; missing entries format as "".
func (c *CategoricalColumn) StringAt(i int) string {
	if c.Codes[i] < 0 {
		return ""
	}
	return c.Dict[c.Codes[i]]
}

// Value returns the string value of entry i and whether it is present.
func (c *CategoricalColumn) Value(i int) (string, bool) {
	if c.Codes[i] < 0 {
		return "", false
	}
	return c.Dict[c.Codes[i]], true
}

// Cardinality returns the dictionary size.
func (c *CategoricalColumn) Cardinality() int { return len(c.Dict) }

// Clone returns a deep copy.
func (c *CategoricalColumn) Clone() Column {
	codes := make([]int, len(c.Codes))
	copy(codes, c.Codes)
	dict := make([]string, len(c.Dict))
	copy(dict, c.Dict)
	return &CategoricalColumn{name: c.name, Codes: codes, Dict: dict}
}

// TimeColumn is a Unix-seconds timestamp column. Missing values are
// MissingTime.
type TimeColumn struct {
	name string
	Unix []int64
}

// NewTime constructs a time column over the given Unix timestamps. The slice
// is used directly, not copied.
func NewTime(name string, unix []int64) *TimeColumn {
	return &TimeColumn{name: name, Unix: unix}
}

// Name returns the column name.
func (c *TimeColumn) Name() string { return c.name }

// WithName returns a shallow copy of the column under a new name.
func (c *TimeColumn) WithName(name string) Column {
	return &TimeColumn{name: name, Unix: c.Unix}
}

// Kind returns Time.
func (c *TimeColumn) Kind() Kind { return Time }

// Len returns the number of entries.
func (c *TimeColumn) Len() int { return len(c.Unix) }

// IsMissing reports whether entry i is MissingTime.
func (c *TimeColumn) IsMissing(i int) bool { return c.Unix[i] == MissingTime }

// MissingCount returns the number of MissingTime entries.
func (c *TimeColumn) MissingCount() int {
	n := 0
	for _, v := range c.Unix {
		if v == MissingTime {
			n++
		}
	}
	return n
}

// Gather returns a new column gathering the given row indices; -1 yields a
// missing entry.
func (c *TimeColumn) Gather(idx []int) Column {
	out := make([]int64, len(idx))
	for j, i := range idx {
		if i < 0 {
			out[j] = MissingTime
		} else {
			out[j] = c.Unix[i]
		}
	}
	return &TimeColumn{name: c.name, Unix: out}
}

// StringAt formats entry i as RFC 3339; missing entries format as "".
func (c *TimeColumn) StringAt(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	return time.Unix(c.Unix[i], 0).UTC().Format(time.RFC3339)
}

// Clone returns a deep copy.
func (c *TimeColumn) Clone() Column {
	v := make([]int64, len(c.Unix))
	copy(v, c.Unix)
	return &TimeColumn{name: c.name, Unix: v}
}

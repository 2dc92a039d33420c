package join

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/arda-ml/arda/internal/dataframe"
)

// keyString renders row i's value in column c as a canonical string for
// exact-match hashing; the second return is false when the value is missing.
func keyString(c dataframe.Column, i int) (string, bool) {
	if c.IsMissing(i) {
		return "", false
	}
	switch col := c.(type) {
	case *dataframe.NumericColumn:
		return strconv.FormatFloat(col.Values[i], 'g', -1, 64), true
	case *dataframe.CategoricalColumn:
		return col.Dict[col.Codes[i]], true
	case *dataframe.TimeColumn:
		return strconv.FormatInt(col.Unix[i], 10), true
	default:
		return c.StringAt(i), true
	}
}

// compositeKey joins per-column key strings with an unprintable separator;
// ok is false when any component is missing.
func compositeKey(cols []dataframe.Column, i int) (string, bool) {
	var b strings.Builder
	for n, c := range cols {
		s, ok := keyString(c, i)
		if !ok {
			return "", false
		}
		if n > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(s)
	}
	return b.String(), true
}

// Granularity detects the coarsest time unit (in seconds) that all present
// timestamps align to: day, hour, minute or second.
func Granularity(unix []int64) int64 {
	units := []int64{86400, 3600, 60}
	for _, u := range units {
		ok := true
		any := false
		for _, t := range unix {
			if t == dataframe.MissingTime {
				continue
			}
			any = true
			if t%u != 0 {
				ok = false
				break
			}
		}
		if ok && any {
			return u
		}
	}
	return 1
}

// aggregateGroups collapses each group of foreign-table rows into a single
// row: numeric columns average their non-missing values, categorical columns
// take the modal category, and time columns take the mean timestamp. groups
// maps group ordinal -> member row indices. The returned table has one row
// per group, in group-ordinal order. A malformed input table (duplicate
// column names) surfaces as an error rather than aborting the process, so a
// single bad candidate stays quarantinable.
func aggregateGroups(t *dataframe.Table, groups [][]int) (*dataframe.Table, error) {
	out := dataframe.MustNewTable(t.Name())
	for _, c := range t.Columns() {
		switch col := c.(type) {
		case *dataframe.NumericColumn:
			vals := make([]float64, len(groups))
			for g, members := range groups {
				sum, cnt := 0.0, 0
				for _, i := range members {
					if v := col.Values[i]; !math.IsNaN(v) {
						sum += v
						cnt++
					}
				}
				if cnt == 0 {
					vals[g] = math.NaN()
				} else {
					vals[g] = sum / float64(cnt)
				}
			}
			if err := out.AddColumn(dataframe.NewNumeric(c.Name(), vals)); err != nil {
				return nil, fmt.Errorf("join: aggregating %q: %w", c.Name(), err)
			}
		case *dataframe.CategoricalColumn:
			codes := make([]int, len(groups))
			counts := make(map[int]int)
			for g, members := range groups {
				for k := range counts {
					delete(counts, k)
				}
				best, bestCode := 0, -1
				for _, i := range members {
					code := col.Codes[i]
					if code < 0 {
						continue
					}
					counts[code]++
					if counts[code] > best {
						best, bestCode = counts[code], code
					}
				}
				codes[g] = bestCode
			}
			if err := out.AddColumn(dataframe.NewCategoricalCodes(c.Name(), codes, col.Dict)); err != nil {
				return nil, fmt.Errorf("join: aggregating %q: %w", c.Name(), err)
			}
		case *dataframe.TimeColumn:
			unix := make([]int64, len(groups))
			for g, members := range groups {
				var sum int64
				cnt := 0
				for _, i := range members {
					if v := col.Unix[i]; v != dataframe.MissingTime {
						sum += v
						cnt++
					}
				}
				if cnt == 0 {
					unix[g] = dataframe.MissingTime
				} else {
					unix[g] = sum / int64(cnt)
				}
			}
			if err := out.AddColumn(dataframe.NewTime(c.Name(), unix)); err != nil {
				return nil, fmt.Errorf("join: aggregating %q: %w", c.Name(), err)
			}
		}
	}
	return out, nil
}

// AggregateByKey groups the table by the composite key over keyCols and
// collapses each group to one row, reducing one-to-many joins to one-to-one
// (§4 "Join Cardinality"). Rows with a missing key component are dropped.
// Grouping runs on the hashed-key plane, with the string composite key as
// the collision/unsupported-type fallback.
func AggregateByKey(t *dataframe.Table, keyCols []string) (*dataframe.Table, error) {
	cols := make([]dataframe.Column, len(keyCols))
	for i, name := range keyCols {
		c := t.Column(name)
		if c == nil {
			return nil, errMissingColumn(t, name)
		}
		cols[i] = c
	}
	return aggregateGroups(t, groupRowsByKey(cols, t.NumRows()))
}

// groupRowsByKey groups rows by composite key in first-appearance order,
// preferring the hashed plane and falling back to string keys.
func groupRowsByKey(cols []dataframe.Column, n int) [][]int {
	if kcs := newGroupHasher(cols); kcs != nil {
		if groups, ok := hashGroups(kcs, n); ok {
			return groups
		}
	}
	index := make(map[string]int)
	var groups [][]int
	for i := 0; i < n; i++ {
		key, ok := compositeKey(cols, i)
		if !ok {
			continue
		}
		g, seen := index[key]
		if !seen {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// ResampleTime buckets the named time (or numeric) column of t to the given
// granularity (seconds) and aggregates rows sharing a bucket along with the
// extra key columns, implementing the paper's time-resampling: all foreign
// rows falling in the same base-granularity span collapse into one (§4
// "Time-Resampling"). The key column in the result holds the bucket start.
func ResampleTime(t *dataframe.Table, timeCol string, gran int64, extraKeys []string) (*dataframe.Table, error) {
	c := t.Column(timeCol)
	if c == nil {
		return nil, errMissingColumn(t, timeCol)
	}
	if gran <= 1 {
		if len(extraKeys) == 0 {
			return AggregateByKey(t, []string{timeCol})
		}
		return AggregateByKey(t, append([]string{timeCol}, extraKeys...))
	}
	// Build a bucketed copy of the key column, aggregate on it.
	work := t.Clone()
	switch col := work.Column(timeCol).(type) {
	case *dataframe.TimeColumn:
		for i, v := range col.Unix {
			if v != dataframe.MissingTime {
				col.Unix[i] = floorDiv(v, gran) * gran
			}
		}
	case *dataframe.NumericColumn:
		for i, v := range col.Values {
			if !math.IsNaN(v) {
				col.Values[i] = math.Floor(v/float64(gran)) * float64(gran)
			}
		}
	default:
		return nil, errMissingColumn(t, timeCol)
	}
	keys := append([]string{timeCol}, extraKeys...)
	return AggregateByKey(work, keys)
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// errMissingColumn builds the standard missing-column error.
func errMissingColumn(t *dataframe.Table, name string) error {
	return &MissingColumnError{Table: t.Name(), Column: name}
}

// MissingColumnError reports a join referencing a column the table lacks.
type MissingColumnError struct {
	Table, Column string
}

// Error implements the error interface.
func (e *MissingColumnError) Error() string {
	return "join: table " + strconv.Quote(e.Table) + " has no column " + strconv.Quote(e.Column)
}

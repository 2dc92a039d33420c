package join

import (
	"fmt"
	"math"
	"slices"
	"strconv"

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

// compositeKey renders row i's composite key as a string; ok is false when
// any component is missing. A single-column key is its value's string; a
// longer key length-prefixes each part, so no two distinct keys share a
// rendering whatever bytes their values contain.
func compositeKey(cols []dataframe.Column, i int) (string, bool) {
	if len(cols) == 1 {
		return keyString(cols[0], i)
	}
	var b []byte
	for _, c := range cols {
		s, ok := keyString(c, i)
		if !ok {
			return "", false
		}
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	return string(b), true
}

// DistinctKeys counts the distinct composite keys of rows 0..n-1 in cols,
// skipping rows with a missing component: the number of groups
// AggregateByKey would make.
func DistinctKeys(cols []dataframe.Column, n int) int {
	return groupRowsByKey(cols, n).len()
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

// keyGroups groups rows by composite key in compressed sparse row form:
// group g's rows are rows[off[g]:off[g+1]], ascending, and groups are
// numbered in order of first appearance. Rows with a missing key component
// belong to no group.
type keyGroups struct {
	off  []int
	rows []int
}

// newKeyGroups lays rows out by group id (ids[i] < 0: no group) with one
// counting sort over ngroups groups.
func newKeyGroups(ids []int32, ngroups int) keyGroups {
	off := make([]int, ngroups+1)
	for _, g := range ids {
		if g >= 0 {
			off[g+1]++
		}
	}
	for g := 1; g <= ngroups; g++ {
		off[g] += off[g-1]
	}
	// off[g] is group g's start; it serves as g's cursor while the rows are
	// placed, which leaves it at g's end, so shift the ends back by one group.
	rows := make([]int, off[ngroups])
	for i, g := range ids {
		if g >= 0 {
			rows[off[g]] = i
			off[g]++
		}
	}
	copy(off[1:], off[:ngroups])
	off[0] = 0
	return keyGroups{off: off, rows: rows}
}

// len returns the number of groups.
func (kg keyGroups) len() int { return len(kg.off) - 1 }

// members returns group g's rows.
func (kg keyGroups) members(g int) []int { return kg.rows[kg.off[g]:kg.off[g+1]] }

// stringGroupIDs is hashGroupIDs on string composite keys, the path for a
// verified collision or a column kind the hasher does not model. The map
// resolves a rendered key to its group.
func stringGroupIDs(cols []dataframe.Column, n int) (ids []int32, index map[string]int32) {
	ids = make([]int32, n)
	index = make(map[string]int32)
	for i := range ids {
		key, ok := compositeKey(cols, i)
		if !ok {
			ids[i] = -1
			continue
		}
		g, seen := index[key]
		if !seen {
			g = int32(len(index))
			index[key] = g
		}
		ids[i] = g
	}
	return ids, index
}

// groupRowsByKey groups rows 0..n-1 by composite key, preferring the hashed
// plane and falling back to string keys.
func groupRowsByKey(cols []dataframe.Column, n int) keyGroups {
	if kcs := newGroupHasher(cols); kcs != nil {
		if ids, x, ok := hashGroupIDs(kcs, n); ok {
			return newKeyGroups(ids, len(x.hash))
		}
	}
	ids, index := stringGroupIDs(cols, n)
	return newKeyGroups(ids, len(index))
}

// The reductions below collapse one group's rows to one value (§4 "Join
// Cardinality"), visiting the members in row order: AggregateByKey applies
// them to every group, the hard join to the groups base rows match.

// meanFloat is the mean of the members' non-NaN values, NaN when there is
// none.
func meanFloat(vals []float64, members []int) float64 {
	sum, cnt := 0.0, 0
	for _, i := range members {
		if v := vals[i]; !math.IsNaN(v) {
			sum += v
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// meanTime is the (truncated) mean of the members' present timestamps,
// MissingTime when there is none.
func meanTime(unix []int64, members []int) int64 {
	var sum int64
	cnt := 0
	for _, i := range members {
		if v := unix[i]; v != dataframe.MissingTime {
			sum += v
			cnt++
		}
	}
	if cnt == 0 {
		return dataframe.MissingTime
	}
	return sum / int64(cnt)
}

// modeCode is the members' most frequent present code, the first to reach
// the maximum count winning a tie; -1 when every code is missing. counts is
// scratch, emptied first.
func modeCode(codes []int, members []int, counts map[int]int) int {
	if len(members) == 1 {
		return max(codes[members[0]], -1)
	}
	clear(counts)
	best, bestCode := 0, -1
	for _, i := range members {
		code := codes[i]
		if code < 0 {
			continue
		}
		counts[code]++
		if counts[code] > best {
			best, bestCode = counts[code], code
		}
	}
	return bestCode
}

// aggregateGroups collapses each group of t's rows into a single row:
// numeric columns average their non-missing values, categorical columns take
// the modal category, and time columns take the mean timestamp. A key
// column (named in keys) takes its group's first row's value instead, so the
// result's key is exactly the group's key; a mean of equal floats need not
// be. The returned table has one row per group, in group order. A malformed
// input table (duplicate column names) surfaces as an error rather than
// aborting the process, so a single bad candidate stays quarantinable.
func aggregateGroups(t *dataframe.Table, groups keyGroups, keys []string) (*dataframe.Table, error) {
	out := dataframe.MustNewTable(t.Name())
	n := groups.len()
	for _, c := range t.Columns() {
		isKey := slices.Contains(keys, c.Name())
		var ac dataframe.Column
		switch col := c.(type) {
		case *dataframe.NumericColumn:
			vals := make([]float64, n)
			for g := range vals {
				if m := groups.members(g); isKey {
					vals[g] = col.Values[m[0]]
				} else {
					vals[g] = meanFloat(col.Values, m)
				}
			}
			ac = dataframe.NewNumeric(c.Name(), vals)
		case *dataframe.CategoricalColumn:
			codes := make([]int, n)
			counts := make(map[int]int)
			for g := range codes {
				if m := groups.members(g); isKey {
					codes[g] = col.Codes[m[0]]
				} else {
					codes[g] = modeCode(col.Codes, m, counts)
				}
			}
			ac = dataframe.NewCategoricalCodes(c.Name(), codes, col.Dict)
		case *dataframe.TimeColumn:
			unix := make([]int64, n)
			for g := range unix {
				if m := groups.members(g); isKey {
					unix[g] = col.Unix[m[0]]
				} else {
					unix[g] = meanTime(col.Unix, m)
				}
			}
			ac = dataframe.NewTime(c.Name(), unix)
		default:
			continue
		}
		if err := out.AddColumn(ac); err != nil {
			return nil, fmt.Errorf("join: aggregating %q: %w", c.Name(), err)
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
	return aggregateGroups(t, groupRowsByKey(cols, t.NumRows()), keyCols)
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

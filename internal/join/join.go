package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/arda-ml/arda/internal/dataframe"
)

// Result describes an executed augmentation join.
type Result struct {
	// Table is the base table with the foreign table's feature columns
	// appended (LEFT JOIN semantics: exactly the base rows, in order).
	Table *dataframe.Table
	// Matched counts base rows that found a foreign match.
	Matched int
	// AddedColumns lists the appended column names.
	AddedColumns []string
}

// Execute performs the LEFT join described by spec, appending the foreign
// table's non-key columns (renamed with the spec prefix) to the base table.
// The foreign rows sharing a key are reduced to one (mean, mode) so the
// result has exactly the base table's rows. Unmatched rows hold missing
// values (impute after).
// rng drives categorical tie-breaking in two-way-nearest interpolation; it
// may be nil when the method is not TwoWayNearest.
func Execute(base, foreign *dataframe.Table, spec *Spec, rng *rand.Rand) (*Result, error) {
	if err := spec.Validate(base, foreign); err != nil {
		return nil, err
	}
	prefix := spec.Prefix
	if prefix == "" {
		prefix = foreign.Name() + "."
	}
	// A hard-key join reads the foreign table in place. The soft and
	// time-resample joins first reduce the foreign table to one row per key
	// (one-to-many and many-to-many become *-to-one).
	if spec.exact() {
		return hardJoin(base, foreign, spec, prefix)
	}
	soft, hasSoft := spec.softKey()
	hard := spec.hardKeys()
	var prepared *dataframe.Table
	var err error
	if hasSoft && spec.TimeResample {
		gran := baseGranularity(base.Column(soft.BaseColumn))
		hardCols := make([]string, 0, len(hard))
		for _, kp := range hard {
			hardCols = append(hardCols, kp.ForeignColumn)
		}
		prepared, err = ResampleTime(foreign, soft.ForeignColumn, gran, hardCols)
	} else {
		foreignKeyCols := make([]string, 0, len(spec.Keys))
		for _, kp := range spec.Keys {
			foreignKeyCols = append(foreignKeyCols, kp.ForeignColumn)
		}
		prepared, err = AggregateByKey(foreign, foreignKeyCols)
	}
	if err != nil {
		return nil, err
	}
	if spec.Method == HardExact {
		return hardJoin(base, prepared, spec, prefix)
	}
	return softJoin(base, prepared, spec, soft, hard, prefix, rng)
}

// baseGranularity returns the time granularity (seconds) of a base key
// column, 1 for non-time columns.
func baseGranularity(c dataframe.Column) int64 {
	if tc, ok := c.(*dataframe.TimeColumn); ok {
		return Granularity(tc.Unix)
	}
	return 1
}

// hardJoin matches base rows to foreign rows on exact composite-key
// equality and appends the foreign feature columns, reading the foreign
// table in place: its keys are grouped once and each added column is built
// for the base rows only. A key's foreign rows are reduced under
// aggregateGroups' rules (§4 "Join Cardinality"), a key with several rows
// once, however many base rows match it.
func hardJoin(base, foreign *dataframe.Table, spec *Spec, prefix string) (*Result, error) {
	baseCols := make([]dataframe.Column, len(spec.Keys))
	foreignCols := make([]dataframe.Column, len(spec.Keys))
	keys := make([]string, len(spec.Keys))
	for i, kp := range spec.Keys {
		baseCols[i] = base.Column(kp.BaseColumn)
		foreignCols[i] = foreign.Column(kp.ForeignColumn)
		keys[i] = kp.ForeignColumn
	}
	groups, pick, matched := matchHardKeys(baseCols, foreignCols, base.NumRows(), foreign.NumRows())
	reduced := make([]dataframe.Column, 0, foreign.NumCols())
	var counts map[int]int
	for _, c := range foreign.Columns() {
		if slices.Contains(keys, c.Name()) {
			continue
		}
		var rc dataframe.Column
		switch col := c.(type) {
		case *dataframe.NumericColumn:
			rc = dataframe.NewNumeric(c.Name(), spread(pick, groups, math.NaN(),
				func(m []int) float64 { return meanFloat(col.Values, m) }))
		case *dataframe.CategoricalColumn:
			if counts == nil {
				counts = make(map[int]int)
			}
			rc = dataframe.NewCategoricalCodes(c.Name(), spread(pick, groups, -1,
				func(m []int) int { return modeCode(col.Codes, m, counts) }), col.Dict)
		case *dataframe.TimeColumn:
			rc = dataframe.NewTime(c.Name(), spread(pick, groups, dataframe.MissingTime,
				func(m []int) int64 { return meanTime(col.Unix, m) }))
		default:
			continue
		}
		reduced = append(reduced, rc)
	}
	return assemble(base, reduced, spec, prefix, matched)
}

// spread builds one added column over the base rows: missing where pick is
// -1, else the reduction of the picked group's members. A group with
// several members is reduced once and its value reused for every base row
// that picked it.
func spread[T any](pick []int, groups keyGroups, missing T, reduce func(members []int) T) []T {
	out := make([]T, len(pick))
	var memo map[int]T
	for i, g := range pick {
		if g < 0 {
			out[i] = missing
			continue
		}
		m := groups.members(g)
		if len(m) == 1 {
			out[i] = reduce(m)
			continue
		}
		v, ok := memo[g]
		if !ok {
			if memo == nil {
				memo = make(map[int]T)
			}
			v = reduce(m)
			memo[g] = v
		}
		out[i] = v
	}
	return out
}

// matchHardKeys groups the foreign rows by composite key and resolves every
// base row to its key's group: pick[i] is the group, -1 when base row i has
// a missing key component or no foreign row shares its key. The hashed
// plane groups with the joiner's canonical key, so base and foreign
// categorical codes compare through one dictionary; a verified collision or
// a key pair the hasher does not model takes the string path, which groups
// and probes the same way.
func matchHardKeys(baseCols, foreignCols []dataframe.Column, nBase, nForeign int) (groups keyGroups, pick []int, matched int) {
	pick = make([]int, nBase)
	if h := newJoinHasher(baseCols, foreignCols); h != nil {
		if ids, x, ok := hashGroupIDs(h.foreign, nForeign); ok {
			for i := range pick {
				pick[i] = -1
				key, present := h.baseKey(i)
				if !present {
					continue
				}
				// A hit failing verification is a base key whose hash equals
				// a different foreign key's. No other foreign key can own
				// that hash (grouping would have found the collision), so
				// the base row is unmatched.
				if g := x.find(key); g >= 0 && h.eqBF(i, x.first[g]) {
					pick[i] = g
					matched++
				}
			}
			return newKeyGroups(ids, len(x.hash)), pick, matched
		}
	}
	ids, index := stringGroupIDs(foreignCols, nForeign)
	for i := range pick {
		pick[i] = -1
		if key, ok := compositeKey(baseCols, i); ok {
			if g, found := index[key]; found {
				pick[i] = int(g)
				matched++
			}
		}
	}
	return newKeyGroups(ids, len(index)), pick, matched
}

// softGroup holds a hard-key group's foreign rows sorted by soft-key value.
type softGroup struct {
	rows []int
	keys []float64
}

// buildSoftGroups groups foreign rows by hard composite key (hashed plane
// first, string keys on collision or unmodeled columns) and returns the
// groups plus a base-row lookup resolving each base row to its group.
func buildSoftGroups(baseHard, foreignHard []dataframe.Column, foreignSoftKey func(int) (float64, bool), nForeign int) (lookup func(int) *softGroup, all []*softGroup) {
	if h := newJoinHasher(baseHard, foreignHard); h != nil {
		groups := make(map[uint64]*softGroup)
		rep := make(map[uint64]int) // group hash -> representative foreign row
		collision := false
		for i := 0; i < nForeign; i++ {
			hk, ok := h.foreignKey(i)
			if !ok {
				continue
			}
			sk, ok := foreignSoftKey(i)
			if !ok {
				continue
			}
			g := groups[hk]
			if g == nil {
				g = &softGroup{}
				groups[hk] = g
				rep[hk] = i
				all = append(all, g)
			} else if !h.eqFF(i, rep[hk]) {
				collision = true
				break
			}
			g.rows = append(g.rows, i)
			g.keys = append(g.keys, sk)
		}
		if !collision {
			return func(i int) *softGroup {
				hk, ok := h.baseKey(i)
				if !ok {
					return nil
				}
				g := groups[hk]
				if g == nil || !h.eqBF(i, rep[hk]) {
					// A hit failing verification means the base key is
					// absent (no second group can own this hash).
					return nil
				}
				return g
			}, all
		}
		all = nil
	}
	groups := make(map[string]*softGroup)
	for i := 0; i < nForeign; i++ {
		hk, ok := compositeKey(foreignHard, i)
		if !ok {
			continue
		}
		sk, ok := foreignSoftKey(i)
		if !ok {
			continue
		}
		g := groups[hk]
		if g == nil {
			g = &softGroup{}
			groups[hk] = g
			all = append(all, g)
		}
		g.rows = append(g.rows, i)
		g.keys = append(g.keys, sk)
	}
	return func(i int) *softGroup {
		hk, ok := compositeKey(baseHard, i)
		if !ok {
			return nil
		}
		return groups[hk]
	}, all
}

// softJoin matches base rows by hard-key equality plus soft-key proximity.
func softJoin(base, foreign *dataframe.Table, spec *Spec, soft KeyPair, hard []KeyPair, prefix string, rng *rand.Rand) (*Result, error) {
	baseHard := make([]dataframe.Column, len(hard))
	foreignHard := make([]dataframe.Column, len(hard))
	for i, kp := range hard {
		baseHard[i] = base.Column(kp.BaseColumn)
		foreignHard[i] = foreign.Column(kp.ForeignColumn)
	}
	baseSoftKey, err := dataframe.NumericKey(base.Column(soft.BaseColumn))
	if err != nil {
		return nil, err
	}
	foreignSoftKey, err := dataframe.NumericKey(foreign.Column(soft.ForeignColumn))
	if err != nil {
		return nil, err
	}

	lookup, all := buildSoftGroups(baseHard, foreignHard, foreignSoftKey, foreign.NumRows())
	for _, g := range all {
		order := make([]int, len(g.rows))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return g.keys[order[a]] < g.keys[order[b]] })
		rows := make([]int, len(order))
		keys := make([]float64, len(order))
		for p, o := range order {
			rows[p] = g.rows[o]
			keys[p] = g.keys[o]
		}
		g.rows, g.keys = rows, keys
	}

	n := base.NumRows()
	low := make([]int, n)
	high := make([]int, n)
	lambda := make([]float64, n)
	matched := 0
	for i := 0; i < n; i++ {
		low[i], high[i] = -1, -1
		x, ok := baseSoftKey(i)
		if !ok {
			continue
		}
		g := lookup(i)
		if g == nil || len(g.rows) == 0 {
			continue
		}
		// pos = first index with key >= x.
		pos := sort.SearchFloat64s(g.keys, x)
		switch spec.Method {
		case TwoWayNearest:
			lo, hi := pos-1, pos
			if hi < len(g.keys) && g.keys[hi] == x {
				// Exact hit: no interpolation needed.
				low[i], high[i], lambda[i] = g.rows[hi], g.rows[hi], 1
				matched++
				continue
			}
			switch {
			case lo < 0 && hi >= len(g.keys):
				continue
			case lo < 0:
				low[i], high[i], lambda[i] = g.rows[hi], g.rows[hi], 1
			case hi >= len(g.keys):
				low[i], high[i], lambda[i] = g.rows[lo], g.rows[lo], 1
			default:
				ylow, yhigh := g.keys[lo], g.keys[hi]
				lam := 1.0
				if yhigh > ylow {
					// x = λ·ylow + (1−λ)·yhigh  ⇒  λ = (yhigh−x)/(yhigh−ylow).
					lam = (yhigh - x) / (yhigh - ylow)
				}
				low[i], high[i], lambda[i] = g.rows[lo], g.rows[hi], lam
			}
			matched++
		default: // NearestNeighbor
			best, bestDist := -1, math.Inf(1)
			if pos < len(g.keys) {
				best, bestDist = g.rows[pos], math.Abs(g.keys[pos]-x)
			}
			if pos-1 >= 0 && math.Abs(g.keys[pos-1]-x) < bestDist {
				best = g.rows[pos-1]
			}
			if best >= 0 {
				low[i], high[i], lambda[i] = best, best, 1
				matched++
			}
		}
	}

	if spec.Method == TwoWayNearest {
		blended, err := blendRows(foreign, low, high, lambda, rng)
		if err != nil {
			return nil, err
		}
		return assemble(base, blended.Columns(), spec, prefix, matched)
	}
	return assemble(base, foreign.Gather(low).Columns(), spec, prefix, matched)
}

// blendRows builds a table whose row i is λ·foreign[low[i]] +
// (1−λ)·foreign[high[i]] for numeric/time columns; categorical values pick
// the low or high side uniformly at random (paper §4, two-way NN join). A
// foreign table violating the column invariants (duplicate names) surfaces
// as an error so the candidate can be quarantined instead of killing the run.
func blendRows(foreign *dataframe.Table, low, high []int, lambda []float64, rng *rand.Rand) (*dataframe.Table, error) {
	n := len(low)
	out := dataframe.MustNewTable(foreign.Name())
	for _, c := range foreign.Columns() {
		switch col := c.(type) {
		case *dataframe.NumericColumn:
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				if low[i] < 0 {
					vals[i] = math.NaN()
					continue
				}
				lo, hi := col.Values[low[i]], col.Values[high[i]]
				switch {
				case math.IsNaN(lo):
					vals[i] = hi
				case math.IsNaN(hi):
					vals[i] = lo
				default:
					vals[i] = float64(lambda[i]*lo) + float64((1-lambda[i])*hi)
				}
			}
			if err := addBlended(out, dataframe.NewNumeric(c.Name(), vals)); err != nil {
				return nil, err
			}
		case *dataframe.TimeColumn:
			vals := make([]int64, n)
			for i := 0; i < n; i++ {
				if low[i] < 0 {
					vals[i] = dataframe.MissingTime
					continue
				}
				lo, hi := col.Unix[low[i]], col.Unix[high[i]]
				switch {
				case lo == dataframe.MissingTime:
					vals[i] = hi
				case hi == dataframe.MissingTime:
					vals[i] = lo
				default:
					vals[i] = int64(float64(lambda[i]*float64(lo)) + float64((1-lambda[i])*float64(hi)))
				}
			}
			if err := addBlended(out, dataframe.NewTime(c.Name(), vals)); err != nil {
				return nil, err
			}
		case *dataframe.CategoricalColumn:
			codes := make([]int, n)
			for i := 0; i < n; i++ {
				if low[i] < 0 {
					codes[i] = -1
					continue
				}
				pick := low[i]
				if high[i] != low[i] && rng != nil && rng.Intn(2) == 1 {
					pick = high[i]
				}
				codes[i] = col.Codes[pick]
			}
			if err := addBlended(out, dataframe.NewCategoricalCodes(c.Name(), codes, col.Dict)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// assemble appends the matched foreign feature columns (all but the join
// keys) to the base table under the given prefix.
func assemble(base *dataframe.Table, matched []dataframe.Column, spec *Spec, prefix string, matchCount int) (*Result, error) {
	keyCols := make(map[string]bool, len(spec.Keys))
	for _, kp := range spec.Keys {
		keyCols[kp.ForeignColumn] = true
	}
	out := dataframe.MustNewTable(base.Name(), base.Columns()...)
	res := &Result{Table: out, Matched: matchCount}
	for _, c := range matched {
		if keyCols[c.Name()] {
			continue
		}
		nc := c.WithName(prefix + c.Name())
		if err := out.AddColumn(nc); err != nil {
			return nil, fmt.Errorf("join: appending %q: %w", nc.Name(), err)
		}
		res.AddedColumns = append(res.AddedColumns, nc.Name())
	}
	return res, nil
}

// addBlended adds a column during blending, wrapping invariant violations
// (duplicate names, length mismatches) as join errors.
func addBlended(t *dataframe.Table, c dataframe.Column) error {
	if err := t.AddColumn(c); err != nil {
		return fmt.Errorf("join: blending %q: %w", c.Name(), err)
	}
	return nil
}

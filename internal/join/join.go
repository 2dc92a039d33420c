package join

import (
	"fmt"
	"math"
	"math/rand"
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
// Foreign tables are pre-aggregated on the join key so the result has exactly
// the base table's rows. Unmatched rows hold missing values (impute after).
// rng drives categorical tie-breaking in two-way-nearest interpolation; it
// may be nil when the method is not TwoWayNearest.
func Execute(base, foreign *dataframe.Table, spec *Spec, rng *rand.Rand) (*Result, error) {
	return ExecuteCached(base, foreign, spec, rng, nil)
}

// ExecuteCached is Execute with a preparation cache: when the same foreign
// table was already aggregated/resampled under the same key set and
// granularity, the prepared table is reused instead of recomputed. A nil
// cache behaves exactly like Execute.
func ExecuteCached(base, foreign *dataframe.Table, spec *Spec, rng *rand.Rand, cache *PrepCache) (*Result, error) {
	if err := spec.Validate(base, foreign); err != nil {
		return nil, err
	}
	prefix := spec.Prefix
	if prefix == "" {
		prefix = foreign.Name() + "."
	}
	soft, hasSoft := spec.softKey()
	hard := spec.hardKeys()

	foreignKeyCols := make([]string, 0, len(spec.Keys))
	for _, kp := range spec.Keys {
		foreignKeyCols = append(foreignKeyCols, kp.ForeignColumn)
	}

	// Pre-aggregate the foreign table so every key is unique (reduces
	// one-to-many and many-to-many joins to the *-to-one case). The
	// preparation depends only on (foreign, keys, granularity) — never on the
	// base rows — so it is memoizable across batches and the materialize pass.
	var prepared *dataframe.Table
	var err error
	if hasSoft && spec.TimeResample && spec.Method != GeoNearest {
		gran := baseGranularity(base.Column(soft.BaseColumn))
		hardCols := make([]string, 0, len(hard))
		for _, kp := range hard {
			hardCols = append(hardCols, kp.ForeignColumn)
		}
		prepared, err = cache.prepare(foreign, prepSpec("resample", append([]string{soft.ForeignColumn}, hardCols...), gran),
			func() (*dataframe.Table, error) { return ResampleTime(foreign, soft.ForeignColumn, gran, hardCols) })
	} else {
		prepared, err = cache.prepare(foreign, prepSpec("aggregate", foreignKeyCols, 0),
			func() (*dataframe.Table, error) { return AggregateByKey(foreign, foreignKeyCols) })
	}
	if err != nil {
		return nil, err
	}

	switch {
	case spec.Method == GeoNearest:
		return geoJoin(base, prepared, spec, prefix)
	case !hasSoft || spec.Method == HardExact:
		return hardJoin(base, prepared, spec, prefix)
	default:
		return softJoin(base, prepared, spec, soft, hard, prefix, rng)
	}
}

// baseGranularity returns the time granularity (seconds) of a base key
// column, 1 for non-time columns.
func baseGranularity(c dataframe.Column) int64 {
	if tc, ok := c.(*dataframe.TimeColumn); ok {
		return Granularity(tc.Unix)
	}
	return 1
}

// hardJoin matches base rows to prepared foreign rows on exact composite-key
// equality, hashing keys when the key columns support it and falling back to
// string composite keys otherwise.
func hardJoin(base, foreign *dataframe.Table, spec *Spec, prefix string) (*Result, error) {
	baseCols := make([]dataframe.Column, len(spec.Keys))
	foreignCols := make([]dataframe.Column, len(spec.Keys))
	for i, kp := range spec.Keys {
		baseCols[i] = base.Column(kp.BaseColumn)
		foreignCols[i] = foreign.Column(kp.ForeignColumn)
	}
	match, matched, ok := hashHardMatch(baseCols, foreignCols, base.NumRows(), foreign.NumRows())
	if !ok {
		match, matched = stringHardMatch(baseCols, foreignCols, base.NumRows(), foreign.NumRows())
	}
	return assemble(base, foreign.Gather(match), spec, prefix, matched)
}

// stringHardMatch is the string-composite-key match path, used when the
// hashed plane cannot model the key columns or detected a hash collision.
func stringHardMatch(baseCols, foreignCols []dataframe.Column, nBase, nForeign int) (match []int, matched int) {
	index := make(map[string]int, nForeign)
	for i := 0; i < nForeign; i++ {
		if key, ok := compositeKey(foreignCols, i); ok {
			index[key] = i
		}
	}
	match = make([]int, nBase)
	for i := range match {
		match[i] = -1
		if key, ok := compositeKey(baseCols, i); ok {
			if j, found := index[key]; found {
				match[i] = j
				matched++
			}
		}
	}
	return match, matched
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
			if pos-1 >= 0 {
				if d := math.Abs(g.keys[pos-1] - x); d < bestDist {
					best, bestDist = g.rows[pos-1], d
				}
			}
			if best >= 0 && (spec.Tolerance <= 0 || bestDist <= spec.Tolerance) {
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
		return assemble(base, blended, spec, prefix, matched)
	}
	return assemble(base, foreign.Gather(low), spec, prefix, matched)
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
					vals[i] = lambda[i]*lo + (1-lambda[i])*hi
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
					vals[i] = int64(lambda[i]*float64(lo) + (1-lambda[i])*float64(hi))
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
func assemble(base, matched *dataframe.Table, spec *Spec, prefix string, matchCount int) (*Result, error) {
	keyCols := make(map[string]bool, len(spec.Keys))
	for _, kp := range spec.Keys {
		keyCols[kp.ForeignColumn] = true
	}
	out := dataframe.MustNewTable(base.Name(), base.Columns()...)
	res := &Result{Table: out, Matched: matchCount}
	for _, c := range matched.Columns() {
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

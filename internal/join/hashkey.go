package join

import (
	"math"

	"github.com/arda-ml/arda/internal/dataframe"
)

// The hashed-key data plane replaces per-row string composite keys with
// 64-bit hashes over the raw column bits: float64 bit patterns for numeric
// keys, Unix int64s for time keys, and dictionary codes for categorical keys
// (foreign codes remapped onto the base table's dictionary once per join).
// Every hash lookup is verified against the candidate row's actual typed
// values, so a 64-bit collision between distinct keys is detected rather than
// silently merging keys; detection aborts the hashed attempt and the caller
// reruns the operation on the original string-key path. Column kinds the
// hasher does not model (a base/foreign pair of different kinds, or an
// unknown Column implementation) also fall back to strings, keeping results
// identical to the string path in every case.

// hashKeyMask is ANDed into every composite hash. Tests shrink it to force
// collisions and exercise the verification/fallback machinery (at 0 every
// pair of distinct keys collides, so the string path runs exactly as it does
// after a production collision); production code leaves it all-ones.
var hashKeyMask = ^uint64(0)

// mix64 is the SplitMix64 finalizer: a cheap invertible mixer whose output
// bits all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyCol is one key column prepared for hashing: direct slice access per kind
// plus, for categorical columns, a per-dictionary-entry canonical code so
// equal strings hash equally across the base and foreign dictionaries.
type keyCol struct {
	kind  dataframe.Kind
	num   []float64
	unix  []int64
	codes []int
	canon []int // categorical: canonical id per dictionary entry
}

// valueBits returns the hashable bit pattern of row i's value; ok is false
// when the value is missing.
func (kc *keyCol) valueBits(i int) (uint64, bool) {
	switch kc.kind {
	case dataframe.Numeric:
		v := kc.num[i]
		if math.IsNaN(v) {
			return 0, false
		}
		return math.Float64bits(v), true
	case dataframe.Time:
		v := kc.unix[i]
		if v == dataframe.MissingTime {
			return 0, false
		}
		return uint64(v), true
	default: // Categorical
		c := kc.codes[i]
		if c < 0 {
			return 0, false
		}
		return uint64(kc.canon[c]), true
	}
}

// valueEq reports whether row i of a equals row j of b under the same
// semantics the string key path uses: exact bit equality for numeric (the
// shortest round-trip formatting is injective on non-NaN floats, so bit
// equality and string equality coincide), exact int64 equality for time, and
// canonical-code equality for categorical values.
func valueEq(a *keyCol, i int, b *keyCol, j int) bool {
	switch a.kind {
	case dataframe.Numeric:
		av, bv := a.num[i], b.num[j]
		if math.IsNaN(av) || math.IsNaN(bv) {
			return false
		}
		return math.Float64bits(av) == math.Float64bits(bv)
	case dataframe.Time:
		av, bv := a.unix[i], b.unix[j]
		return av != dataframe.MissingTime && av == bv
	default: // Categorical
		ac, bc := a.codes[i], b.codes[j]
		if ac < 0 || bc < 0 {
			return false
		}
		return a.canon[ac] == b.canon[bc]
	}
}

// compositeHash combines the per-column value bits of row i into one 64-bit
// key; ok is false when any component is missing.
func compositeHash(cols []keyCol, i int) (uint64, bool) {
	h := uint64(0x9e3779b97f4a7c15)
	for k := range cols {
		b, ok := cols[k].valueBits(i)
		if !ok {
			return 0, false
		}
		h = mix64(h ^ (b + uint64(k+1)*0x9e3779b97f4a7c15))
	}
	return h & hashKeyMask, true
}

// keyEq reports whether the composite key of row i under a equals that of
// row j under b. a and b must be parallel column lists.
func keyEq(a []keyCol, i int, b []keyCol, j int) bool {
	for k := range a {
		if !valueEq(&a[k], i, &b[k], j) {
			return false
		}
	}
	return true
}

// canonicalCodes deduplicates a dictionary into canonical ids (first
// occurrence wins), extending the given map; it returns the per-entry mapping.
func canonicalCodes(dict []string, index map[string]int) []int {
	canon := make([]int, len(dict))
	for i, s := range dict {
		id, ok := index[s]
		if !ok {
			id = len(index)
			index[s] = id
		}
		canon[i] = id
	}
	return canon
}

// newKeyCol prepares a single column for hashing; ok is false for column
// implementations the hasher does not model. Categorical columns canonicalize
// through the shared index (nil creates a private one).
func newKeyCol(c dataframe.Column, index map[string]int) (keyCol, bool) {
	switch col := c.(type) {
	case *dataframe.NumericColumn:
		return keyCol{kind: dataframe.Numeric, num: col.Values}, true
	case *dataframe.TimeColumn:
		return keyCol{kind: dataframe.Time, unix: col.Unix}, true
	case *dataframe.CategoricalColumn:
		if index == nil {
			index = make(map[string]int, len(col.Dict))
		}
		return keyCol{
			kind:  dataframe.Categorical,
			codes: col.Codes,
			canon: canonicalCodes(col.Dict, index),
		}, true
	default:
		return keyCol{}, false
	}
}

// joinHasher hashes composite keys of aligned base/foreign key columns.
type joinHasher struct {
	base, foreign []keyCol
}

// newJoinHasher prepares paired key columns for hashing, or returns nil when
// any pair mixes kinds (the string path handles those rare specs).
func newJoinHasher(baseCols, foreignCols []dataframe.Column) *joinHasher {
	h := &joinHasher{
		base:    make([]keyCol, len(baseCols)),
		foreign: make([]keyCol, len(foreignCols)),
	}
	for i := range baseCols {
		if baseCols[i].Kind() != foreignCols[i].Kind() {
			return nil
		}
		var index map[string]int
		if bc, ok := baseCols[i].(*dataframe.CategoricalColumn); ok {
			// One shared index per pair: base dictionary entries claim
			// canonical ids first, foreign novelties extend them, so equal
			// strings agree across the two tables.
			index = make(map[string]int, len(bc.Dict))
		}
		kb, ok := newKeyCol(baseCols[i], index)
		if !ok {
			return nil
		}
		kf, ok := newKeyCol(foreignCols[i], index)
		if !ok {
			return nil
		}
		h.base[i], h.foreign[i] = kb, kf
	}
	return h
}

// baseKey returns base row i's composite hash.
func (h *joinHasher) baseKey(i int) (uint64, bool) { return compositeHash(h.base, i) }

// foreignKey returns foreign row i's composite hash.
func (h *joinHasher) foreignKey(i int) (uint64, bool) { return compositeHash(h.foreign, i) }

// eqBF verifies base row bi's key equals foreign row fi's key.
func (h *joinHasher) eqBF(bi, fi int) bool { return keyEq(h.base, bi, h.foreign, fi) }

// eqFF verifies two foreign rows share a key.
func (h *joinHasher) eqFF(i, j int) bool { return keyEq(h.foreign, i, h.foreign, j) }

// newGroupHasher prepares a single table's key columns for group hashing, or
// nil for unmodeled column implementations.
func newGroupHasher(cols []dataframe.Column) []keyCol {
	out := make([]keyCol, len(cols))
	for i, c := range cols {
		kc, ok := newKeyCol(c, nil)
		if !ok {
			return nil
		}
		out[i] = kc
	}
	return out
}

// hashIndex maps composite-key hashes to group ids by open addressing with
// linear probing. Grouping stops at the first verified collision, so each
// hash belongs to at most one group.
type hashIndex struct {
	slot  []int32  // group id + 1 per slot; 0 marks an empty slot
	hash  []uint64 // per group: its key's hash
	first []int    // per group: its first row, the key's representative
	mask  uint64
}

// newHashIndex returns an index sized for up to n groups at load ≤ 1/2.
func newHashIndex(n int) *hashIndex {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return &hashIndex{
		slot:  make([]int32, size),
		hash:  make([]uint64, 0, n),
		first: make([]int, 0, n),
		mask:  uint64(size - 1),
	}
}

// find returns the group whose key hashes to h, or -1 when there is none.
func (x *hashIndex) find(h uint64) int {
	for p := h & x.mask; ; p = (p + 1) & x.mask {
		s := x.slot[p]
		if s == 0 {
			return -1
		}
		if x.hash[s-1] == h {
			return int(s - 1)
		}
	}
}

// group returns the group of hash h, opening one with row i as its first
// row when h has none yet (fresh).
func (x *hashIndex) group(h uint64, i int) (g int, fresh bool) {
	p := h & x.mask
	for ; x.slot[p] != 0; p = (p + 1) & x.mask {
		if g := x.slot[p] - 1; x.hash[g] == h {
			return int(g), false
		}
	}
	g = len(x.hash)
	x.slot[p] = int32(g + 1)
	x.hash = append(x.hash, h)
	x.first = append(x.first, i)
	return g, true
}

// hashGroupIDs numbers rows 0..n-1 by hashed composite key, in order of first
// appearance exactly like the string path: ids[i] is row i's group, -1 when a
// key component is missing. The index resolves a hash to its group. ok is
// false when a verified hash collision between distinct keys is found (the
// caller reruns on the string path).
func hashGroupIDs(cols []keyCol, n int) (ids []int32, x *hashIndex, ok bool) {
	ids = make([]int32, n)
	x = newHashIndex(n)
	for i := range ids {
		key, present := compositeHash(cols, i)
		if !present {
			ids[i] = -1
			continue
		}
		g, fresh := x.group(key, i)
		if !fresh && !keyEq(cols, i, cols, x.first[g]) {
			return nil, nil, false
		}
		ids[i] = int32(g)
	}
	return ids, x, true
}

// Package discovery is ARDA's stand-in for an external join-discovery system
// such as Aurum or NYU Auctus. Given a base table and a repository of
// candidate tables, it proposes candidate joins — (base column, foreign
// table, foreign column) triples — scored by value containment and
// column-name affinity, and classifies each key as hard (exact match) or
// soft (proximity match, e.g. time). Exactly like its real counterparts, it
// is deliberately recall-oriented: the candidate list is large and noisy, and
// pruning useless joins is downstream ARDA's job.
package discovery

import (
	"math"
	"sort"
	"strings"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/parallel"
)

// Candidate is one proposed join between the base table and a repository
// table.
type Candidate struct {
	// Table is the foreign table.
	Table *dataframe.Table
	// Keys maps base columns onto foreign columns; len > 1 for composite
	// keys.
	Keys []join.KeyPair
	// Score is the discovery relevancy estimate in [0, ~1.3]: value
	// containment plus a name-affinity bonus. Higher is more promising.
	Score float64
	// Soft reports whether any key pair requires proximity matching.
	Soft bool
}

// Options tunes candidate generation.
type Options struct {
	// MinContainment is the minimum fraction of distinct base key values
	// that must appear in the foreign column for a hard candidate (default
	// 0.05).
	MinContainment float64
	// MaxValueSample caps the number of distinct values compared per column
	// (default 5000).
	MaxValueSample int
	// NameBonus is the score bonus for matching column names (default 0.3).
	NameBonus float64
}

func (o *Options) defaults() {
	if o.MinContainment <= 0 {
		o.MinContainment = 0.05
	}
	if o.MaxValueSample <= 0 {
		o.MaxValueSample = 5000
	}
	if o.NameBonus <= 0 {
		o.NameBonus = 0.3
	}
}

// Discover proposes candidate joins from the base table into every table of
// the repository, ranked by descending score. The target column is never
// used as a key.
//
// Every column is profiled exactly once (see columnProfile). The base table's
// profile is built up front and only read afterwards; each foreign table is
// profiled (numeric value sets only where a base key's range meets the
// column's, see keyRanges), matched and dropped as one work item of the shared
// parallel pool, so the process-wide worker cap bounds discovery like every
// other stage.
// Per-table results are concatenated in repository order before the stable
// sort, which makes the candidate list independent of the worker count.
func Discover(base *dataframe.Table, repo []*dataframe.Table, target string, opts Options) []Candidate {
	opts.defaults()
	bp := profileTable(base, opts, nil)
	needSet := bp.keyRanges(target)
	perTable := make([][]Candidate, len(repo))
	parallel.ForEach(0, len(repo), func(i int) {
		perTable[i] = matchTable(bp, target, profileTable(repo[i], opts, needSet), opts)
	})
	var out []Candidate
	for _, cands := range perTable {
		out = append(out, cands...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// columnProfile is everything matching needs to know about one column,
// computed in a single pass over its rows and never modified afterwards.
type columnProfile struct {
	name string
	norm string // normalizeName(name)
	kind dataframe.Kind
	// span is [min, max] over the present values of a numeric or time
	// column (time in Unix seconds); min > max when there are none.
	span [2]float64
	// nums and strs hold the first MaxValueSample distinct present values in
	// row order, of a numeric and a categorical column respectively. Numeric
	// values are keyed by their IEEE-754 bits: two non-NaN floats have equal
	// bits exactly when their shortest round-trip decimal strings are equal,
	// so this is the set of formatted values without formatting any (+0 and
	// −0 stay distinct; NaN is the missing marker and never enters). nums is
	// nil for a foreign column whose range no base key's meets (keyRanges).
	nums map[uint64]struct{}
	strs map[string]struct{}
}

// tableProfile is a table with one profile per column, in column order.
type tableProfile struct {
	table *dataframe.Table
	cols  []columnProfile
}

// profileTable profiles every column of t. needSet, when not nil, decides
// from a numeric column's span whether its value set is built; a column it
// rejects keeps a nil set, which is only sound where every containment check
// against that column finds the ranges disjoint first.
func profileTable(t *dataframe.Table, opts Options, needSet func(span [2]float64) bool) *tableProfile {
	p := &tableProfile{table: t, cols: make([]columnProfile, t.NumCols())}
	for i, c := range t.Columns() {
		p.cols[i] = profileColumn(c, opts, needSet)
	}
	return p
}

// keyRanges returns the needSet under which foreign tables are profiled
// against this base profile: a foreign numeric column needs its value set
// only if its span meets the span of a base numeric column other than target,
// since every other numeric containment check stops at disjoint ranges.
func (t *tableProfile) keyRanges(target string) func([2]float64) bool {
	var spans [][2]float64
	for i := range t.cols {
		if c := &t.cols[i]; c.kind == dataframe.Numeric && c.name != target {
			spans = append(spans, c.span)
		}
	}
	return func(span [2]float64) bool {
		for _, s := range spans {
			if !disjoint(s, span) {
				return true
			}
		}
		return false
	}
}

// disjoint reports whether two [min, max] spans share no value.
func disjoint(a, b [2]float64) bool { return a[1] < b[0] || b[1] < a[0] }

func profileColumn(c dataframe.Column, opts Options, needSet func(span [2]float64) bool) columnProfile {
	p := columnProfile{name: c.Name(), norm: normalizeName(c.Name()), kind: c.Kind()}
	lo, hi := math.Inf(1), math.Inf(-1)
	switch col := c.(type) {
	case *dataframe.NumericColumn:
		for _, v := range col.Values {
			if v < lo { // false for NaN, the missing marker
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if needSet != nil && !needSet([2]float64{lo, hi}) {
			break
		}
		p.nums = make(map[uint64]struct{}, min(len(col.Values), opts.MaxValueSample))
		for _, v := range col.Values {
			if len(p.nums) == opts.MaxValueSample {
				break
			}
			if !math.IsNaN(v) {
				p.nums[math.Float64bits(v)] = struct{}{}
			}
		}
	case *dataframe.CategoricalColumn:
		// Distinctness is over the strings of used codes (Dict may hold
		// duplicates or unused entries); the bitmap over codes means each
		// string is hashed once per distinct code rather than once per row.
		p.strs = make(map[string]struct{}, min(len(col.Dict), opts.MaxValueSample))
		seen := make([]bool, len(col.Dict))
		for _, code := range col.Codes {
			if code < 0 || seen[code] {
				continue
			}
			if len(p.strs) >= opts.MaxValueSample {
				break
			}
			seen[code] = true
			p.strs[col.Dict[code]] = struct{}{}
		}
	case *dataframe.TimeColumn:
		for _, v := range col.Unix {
			if v == dataframe.MissingTime {
				continue
			}
			f := float64(v)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	p.span = [2]float64{lo, hi}
	return p
}

// containment returns the share of a's distinct values found in b, for two
// columns of the same kind: |A ∩ B| / |A|, 0 when A is empty.
func (a *columnProfile) containment(b *columnProfile) float64 {
	if a.kind == dataframe.Categorical {
		return containment(a.strs, b.strs)
	}
	if disjoint(a.span, b.span) {
		return 0 // disjoint ranges share no value; b's set may not be built
	}
	return containment(a.nums, b.nums)
}

func containment[K comparable](a, b map[K]struct{}) float64 {
	if len(a) == 0 {
		return 0
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	hits := 0
	for v := range small {
		if _, ok := large[v]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(a))
}

// matchTable proposes candidates between the base table and one foreign
// table: every sufficiently-overlapping column pair individually (base-column
// major), then a composite candidate when several hard pairs hit the same
// table.
func matchTable(base *tableProfile, target string, foreign *tableProfile, opts Options) []Candidate {
	var pairs []join.KeyPair
	var scores []float64
	for i := range base.cols {
		bc := &base.cols[i]
		if bc.name == target {
			continue
		}
		for j := range foreign.cols {
			kp, score, ok := matchColumns(bc, &foreign.cols[j], opts)
			if !ok {
				continue
			}
			pairs = append(pairs, kp)
			scores = append(scores, score)
		}
	}
	var out []Candidate
	for i, kp := range pairs {
		out = append(out, Candidate{
			Table: foreign.table,
			Keys:  []join.KeyPair{kp},
			Score: scores[i],
			Soft:  kp.Kind == join.Soft,
		})
	}
	// Composite candidate: all hard pairs with distinct base and foreign
	// columns, when there are at least two.
	var comp []join.KeyPair
	compScore := 0.0
	usedBase := map[string]bool{}
	usedForeign := map[string]bool{}
	for i, kp := range pairs {
		if kp.Kind != join.Hard || usedBase[kp.BaseColumn] || usedForeign[kp.ForeignColumn] {
			continue
		}
		comp = append(comp, kp)
		compScore += scores[i]
		usedBase[kp.BaseColumn] = true
		usedForeign[kp.ForeignColumn] = true
	}
	if len(comp) >= 2 {
		out = append(out, Candidate{
			Table: foreign.table,
			Keys:  comp,
			Score: compScore / float64(len(comp)) * 1.1,
		})
	}
	return out
}

// matchColumns scores one base/foreign column pair as a potential key. It
// only reads the two profiles and allocates nothing.
func matchColumns(bc, fc *columnProfile, opts Options) (join.KeyPair, float64, bool) {
	kp := join.KeyPair{BaseColumn: bc.name, ForeignColumn: fc.name}
	if bc.kind != fc.kind {
		return kp, 0, false
	}
	nameScore := nameAffinity(bc.norm, fc.norm) * opts.NameBonus
	switch bc.kind {
	case dataframe.Time:
		// Time keys are soft; score by range overlap.
		ov := rangeOverlap(bc.span, fc.span)
		if ov <= 0 && nameScore == 0 {
			return kp, 0, false
		}
		kp.Kind = join.Soft
		return kp, ov + float64(nameScore), true
	case dataframe.Categorical:
		cont := bc.containment(fc)
		if cont < opts.MinContainment {
			return kp, 0, false
		}
		kp.Kind = join.Hard
		return kp, cont + float64(nameScore), true
	case dataframe.Numeric:
		// Numeric keys: exact containment suggests a hard (integer id) key;
		// otherwise a name match with range overlap suggests a soft key.
		cont := bc.containment(fc)
		if cont >= opts.MinContainment {
			kp.Kind = join.Hard
			return kp, cont + float64(nameScore), true
		}
		if nameScore > 0 {
			ov := rangeOverlap(bc.span, fc.span)
			if ov > 0 {
				kp.Kind = join.Soft
				return kp, float64(0.5*ov) + float64(nameScore), true
			}
		}
		return kp, 0, false
	default:
		return kp, 0, false
	}
}

// nameAffinity compares two normalized column names: 1 when equal, 0.5 when
// one contains the other, 0 otherwise.
func nameAffinity(na, nb string) float64 {
	switch {
	case na == nb && na != "":
		return 1
	case na != "" && nb != "" && (strings.Contains(na, nb) || strings.Contains(nb, na)):
		return 0.5
	default:
		return 0
	}
}

// normalizeName lowercases and strips separators.
func normalizeName(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch r {
		case '_', '-', ' ', '.':
			return -1
		}
		return r
	}, s)
}

// rangeOverlap returns the overlap fraction of interval a within interval b
// scaled to a's width (0 when disjoint or degenerate).
func rangeOverlap(a, b [2]float64) float64 {
	if a[0] > a[1] || b[0] > b[1] {
		return 0
	}
	lo := math.Max(a[0], b[0])
	hi := math.Min(a[1], b[1])
	if hi <= lo {
		return 0
	}
	width := a[1] - a[0]
	if width <= 0 {
		return 1
	}
	return (hi - lo) / width
}

package discovery

import (
	"math"
	"sort"
	"strings"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/join"
)

// This file freezes the string-set discovery implementation that column
// profiles replaced: the same code under a ref prefix, small helpers inlined.
// It rebuilds a map[string]bool of both columns for every column pair,
// formats every float through FormatFloat, and runs on one goroutine — slow,
// and obviously what it says. The equivalence tests and the fuzz target hold
// the live implementation to its candidate list bit for bit.

// refDiscover is the frozen Discover.
func refDiscover(base *dataframe.Table, repo []*dataframe.Table, target string, opts Options) []Candidate {
	opts.defaults()
	var out []Candidate
	for _, foreign := range repo {
		cands := refDiscoverTable(base, foreign, target, opts)
		out = append(out, cands...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

func refDiscoverTable(base, foreign *dataframe.Table, target string, opts Options) []Candidate {
	var pairs []join.KeyPair
	var scores []float64
	for _, bc := range base.Columns() {
		if bc.Name() == target {
			continue
		}
		for _, fc := range foreign.Columns() {
			kp, score, ok := refMatchColumns(bc, fc, opts)
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
			Table: foreign,
			Keys:  []join.KeyPair{kp},
			Score: scores[i],
			Soft:  kp.Kind == join.Soft,
		})
	}
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
			Table: foreign,
			Keys:  comp,
			Score: compScore / float64(len(comp)) * 1.1,
		})
	}
	return out
}

func refMatchColumns(bc, fc dataframe.Column, opts Options) (join.KeyPair, float64, bool) {
	nameScore := refNameAffinity(bc.Name(), fc.Name()) * opts.NameBonus
	kp := join.KeyPair{BaseColumn: bc.Name(), ForeignColumn: fc.Name()}
	containmentOf := func() float64 {
		switch bc.Kind() {
		case dataframe.Categorical:
			return refContainment(refCategoricalSet(bc.(*dataframe.CategoricalColumn), opts.MaxValueSample),
				refCategoricalSet(fc.(*dataframe.CategoricalColumn), opts.MaxValueSample))
		default:
			return refContainment(refNumericSet(bc.(*dataframe.NumericColumn), opts.MaxValueSample),
				refNumericSet(fc.(*dataframe.NumericColumn), opts.MaxValueSample))
		}
	}
	switch {
	case bc.Kind() == dataframe.Time && fc.Kind() == dataframe.Time:
		ov := refRangeOverlap(refTimeRange(bc), refTimeRange(fc))
		if ov <= 0 && nameScore == 0 {
			return kp, 0, false
		}
		kp.Kind = join.Soft
		return kp, ov + nameScore, true
	case bc.Kind() == dataframe.Categorical && fc.Kind() == dataframe.Categorical:
		cont := containmentOf()
		if cont < opts.MinContainment {
			return kp, 0, false
		}
		kp.Kind = join.Hard
		return kp, cont + nameScore, true
	case bc.Kind() == dataframe.Numeric && fc.Kind() == dataframe.Numeric:
		cont := containmentOf()
		if cont >= opts.MinContainment {
			kp.Kind = join.Hard
			return kp, cont + nameScore, true
		}
		if nameScore > 0 {
			ov := refRangeOverlap(refNumericRange(bc), refNumericRange(fc))
			if ov > 0 {
				kp.Kind = join.Soft
				return kp, 0.5*ov + nameScore, true
			}
		}
		return kp, 0, false
	default:
		return kp, 0, false
	}
}

func refNameAffinity(a, b string) float64 {
	na, nb := refNormalizeName(a), refNormalizeName(b)
	switch {
	case na == nb && na != "":
		return 1
	case na != "" && nb != "" && (strings.Contains(na, nb) || strings.Contains(nb, na)):
		return 0.5
	default:
		return 0
	}
}

func refNormalizeName(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch r {
		case '_', '-', ' ', '.':
			return -1
		}
		return r
	}, s)
}

func refContainment(a, b map[string]bool) float64 {
	if len(a) == 0 {
		return 0
	}
	hits := 0
	for v := range a {
		if b[v] {
			hits++
		}
	}
	return float64(hits) / float64(len(a))
}

func refCategoricalSet(c *dataframe.CategoricalColumn, limit int) map[string]bool {
	out := make(map[string]bool)
	for _, code := range c.Codes {
		if code >= 0 {
			out[c.Dict[code]] = true
			if len(out) >= limit {
				break
			}
		}
	}
	return out
}

func refNumericSet(c *dataframe.NumericColumn, limit int) map[string]bool {
	out := make(map[string]bool)
	for i := range c.Values {
		if c.IsMissing(i) {
			continue
		}
		out[dataframe.NewNumeric("", c.Values[i:i+1]).StringAt(0)] = true
		if len(out) >= limit {
			break
		}
	}
	return out
}

func refNumericRange(c dataframe.Column) [2]float64 {
	col := c.(*dataframe.NumericColumn)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range col.Values {
		if col.IsMissing(i) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return [2]float64{lo, hi}
}

func refTimeRange(c dataframe.Column) [2]float64 {
	col := c.(*dataframe.TimeColumn)
	lo, hi := math.Inf(1), math.Inf(-1)
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
	return [2]float64{lo, hi}
}

func refRangeOverlap(a, b [2]float64) float64 {
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

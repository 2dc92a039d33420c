package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/join"
)

// This file freezes the string-set discovery implementation that column
// profiles replaced: the same code under a ref prefix, small helpers inlined.
// It rebuilds a map[string]bool of both columns for every column pair,
// formats every float through FormatFloat, re-discovers the whole repository
// for every transitive hop, and runs on one goroutine — slow, and obviously
// what it says. The equivalence tests and the fuzz target hold the live
// implementation to its candidate list bit for bit.

// refDiscover is the frozen Discover.
func refDiscover(base *dataframe.Table, repo []*dataframe.Table, target string, opts Options) []Candidate {
	opts.defaults()
	var sigs *refSigCache
	if opts.UseMinHash {
		sigs = &refSigCache{limit: opts.MaxValueSample, cache: map[dataframe.Column]*MinHash{}}
	}
	var out []Candidate
	for _, foreign := range repo {
		cands := refDiscoverTable(base, foreign, target, opts, sigs)
		out = append(out, cands...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

type refSigCache struct {
	limit int
	cache map[dataframe.Column]*MinHash
}

func (s *refSigCache) of(c dataframe.Column) *MinHash {
	if sig, ok := s.cache[c]; ok {
		return sig
	}
	var sig *MinHash
	switch col := c.(type) {
	case *dataframe.CategoricalColumn:
		sig = NewMinHash(refCategoricalSet(col, s.limit))
	case *dataframe.NumericColumn:
		sig = NewMinHash(refNumericSet(col, s.limit))
	default:
		sig = NewMinHash(nil)
	}
	s.cache[c] = sig
	return sig
}

func refDiscoverTable(base, foreign *dataframe.Table, target string, opts Options, sigs *refSigCache) []Candidate {
	var pairs []join.KeyPair
	var scores []float64
	for _, bc := range base.Columns() {
		if bc.Name() == target {
			continue
		}
		for _, fc := range foreign.Columns() {
			kp, score, ok := refMatchColumns(bc, fc, opts, sigs)
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
	if geo, ok := refGeoCandidate(base, foreign, target); ok {
		out = append(out, geo)
	}
	return out
}

func refFindCoordinate(t *dataframe.Table, fragments []string, exclude string) *dataframe.NumericColumn {
	for _, c := range t.Columns() {
		if c.Name() == exclude {
			continue
		}
		nc, ok := c.(*dataframe.NumericColumn)
		if !ok {
			continue
		}
		name := refNormalizeName(c.Name())
		for _, f := range fragments {
			if name == f || strings.HasSuffix(name, f) || strings.HasPrefix(name, f) {
				return nc
			}
		}
	}
	return nil
}

func refGeoCandidate(base, foreign *dataframe.Table, target string) (Candidate, bool) {
	bLat := refFindCoordinate(base, []string{"lat", "latitude"}, target)
	bLon := refFindCoordinate(base, []string{"lon", "lng", "longitude"}, target)
	fLat := refFindCoordinate(foreign, []string{"lat", "latitude"}, "")
	fLon := refFindCoordinate(foreign, []string{"lon", "lng", "longitude"}, "")
	if bLat == nil || bLon == nil || fLat == nil || fLon == nil {
		return Candidate{}, false
	}
	ovLat := refRangeOverlap(refNumericRange(bLat), refNumericRange(fLat))
	ovLon := refRangeOverlap(refNumericRange(bLon), refNumericRange(fLon))
	if ovLat <= 0 || ovLon <= 0 {
		return Candidate{}, false
	}
	return Candidate{
		Table: foreign,
		Keys: []join.KeyPair{
			{BaseColumn: bLon.Name(), ForeignColumn: fLon.Name(), Kind: join.Soft},
			{BaseColumn: bLat.Name(), ForeignColumn: fLat.Name(), Kind: join.Soft},
		},
		Score: (ovLat + ovLon) / 2,
		Soft:  true,
		Geo:   true,
	}, true
}

func refMatchColumns(bc, fc dataframe.Column, opts Options, sigs *refSigCache) (join.KeyPair, float64, bool) {
	nameScore := refNameAffinity(bc.Name(), fc.Name()) * opts.NameBonus
	kp := join.KeyPair{BaseColumn: bc.Name(), ForeignColumn: fc.Name()}
	containmentOf := func() float64 {
		if sigs != nil {
			return sigs.of(bc).Containment(sigs.of(fc))
		}
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

// refTransitive is the frozen Transitive: one refDiscover over the whole
// repository per hop.
func refTransitive(base *dataframe.Table, repo []*dataframe.Table, target string, opts TransitiveOptions, rng *rand.Rand) []Candidate {
	opts.defaults()
	firstHop := refDiscover(base, repo, target, opts.Options)
	expanded := 0
	var out []Candidate
	seen := map[string]bool{}
	for _, first := range firstHop {
		if expanded >= opts.MaxIntermediates {
			break
		}
		if first.Score < opts.MinScore || seen[first.Table.Name()] {
			continue
		}
		seen[first.Table.Name()] = true
		expanded++
		var rest []*dataframe.Table
		for _, t := range repo {
			if t != first.Table && t != base {
				rest = append(rest, t)
			}
		}
		second := refDiscover(first.Table, rest, "", opts.Options)
		joined := 0
		widened := first.Table
		for _, hop := range second {
			if joined >= opts.MaxPerIntermediate {
				break
			}
			if hop.Score < opts.MinScore {
				break
			}
			spec := &join.Spec{
				Keys:         hop.Keys,
				Method:       join.TwoWayNearest,
				TimeResample: true,
				Prefix:       fmt.Sprintf("via.%s.", hop.Table.Name()),
			}
			res, err := join.Execute(widened, hop.Table, spec, rng)
			if err != nil {
				continue
			}
			widened = res.Table
			joined++
		}
		if joined == 0 {
			continue
		}
		widened.SetName(fmt.Sprintf("%s+%dhop", first.Table.Name(), joined))
		out = append(out, Candidate{
			Table: widened,
			Keys:  first.Keys,
			Score: first.Score * 0.9,
			Soft:  first.Soft,
		})
	}
	return out
}

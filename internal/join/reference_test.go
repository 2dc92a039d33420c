package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/parallel"
)

// This file freezes the hard join that reading the foreign table in place
// replaced: aggregate the whole foreign table to one row per key (string
// keys, one row list per group, key columns carrying the group's first row),
// match every base row against the aggregated keys, then gather. It builds a
// full copy of the foreign table per join — slow, and obviously what it
// says. The differential tests and FuzzJoinSpec hold the live hard join to
// its table digest and match count.

// refAggregate is the frozen AggregateByKey on the string plane.
func refAggregate(t *dataframe.Table, keys []string) *dataframe.Table {
	cols := make([]dataframe.Column, len(keys))
	isKey := map[string]bool{}
	for i, name := range keys {
		cols[i] = t.Column(name)
		isKey[name] = true
	}
	rowsOf := map[string][]int{}
	var order []string
	for i := 0; i < t.NumRows(); i++ {
		key, ok := compositeKey(cols, i)
		if !ok {
			continue
		}
		if _, seen := rowsOf[key]; !seen {
			order = append(order, key)
		}
		rowsOf[key] = append(rowsOf[key], i)
	}
	out := dataframe.MustNewTable(t.Name())
	for _, c := range t.Columns() {
		switch col := c.(type) {
		case *dataframe.NumericColumn:
			vals := make([]float64, len(order))
			for g, key := range order {
				members := rowsOf[key]
				if isKey[c.Name()] {
					vals[g] = col.Values[members[0]]
					continue
				}
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
			out.AddColumn(dataframe.NewNumeric(c.Name(), vals))
		case *dataframe.CategoricalColumn:
			codes := make([]int, len(order))
			for g, key := range order {
				members := rowsOf[key]
				if isKey[c.Name()] {
					codes[g] = col.Codes[members[0]]
					continue
				}
				counts := map[int]int{}
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
			out.AddColumn(dataframe.NewCategoricalCodes(c.Name(), codes, col.Dict))
		case *dataframe.TimeColumn:
			unix := make([]int64, len(order))
			for g, key := range order {
				members := rowsOf[key]
				if isKey[c.Name()] {
					unix[g] = col.Unix[members[0]]
					continue
				}
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
			out.AddColumn(dataframe.NewTime(c.Name(), unix))
		}
	}
	return out
}

// refHardJoin is the frozen hard join: aggregate, match on string keys,
// gather, append the non-key columns under the prefix.
func refHardJoin(base, foreign *dataframe.Table, spec *Spec) (*Result, error) {
	if err := spec.Validate(base, foreign); err != nil {
		return nil, err
	}
	prefix := spec.Prefix
	if prefix == "" {
		prefix = foreign.Name() + "."
	}
	keys := make([]string, len(spec.Keys))
	baseCols := make([]dataframe.Column, len(spec.Keys))
	for i, kp := range spec.Keys {
		keys[i] = kp.ForeignColumn
		baseCols[i] = base.Column(kp.BaseColumn)
	}
	agg := refAggregate(foreign, keys)
	aggCols := make([]dataframe.Column, len(keys))
	for i, name := range keys {
		aggCols[i] = agg.Column(name)
	}
	index := map[string]int{}
	for j := 0; j < agg.NumRows(); j++ {
		if key, ok := compositeKey(aggCols, j); ok {
			index[key] = j
		}
	}
	match := make([]int, base.NumRows())
	res := &Result{Table: dataframe.MustNewTable(base.Name(), base.Columns()...)}
	for i := range match {
		match[i] = -1
		if key, ok := compositeKey(baseCols, i); ok {
			if j, found := index[key]; found {
				match[i] = j
				res.Matched++
			}
		}
	}
	isKey := map[string]bool{}
	for _, k := range keys {
		isKey[k] = true
	}
	for _, c := range agg.Gather(match).Columns() {
		if isKey[c.Name()] {
			continue
		}
		if err := res.Table.AddColumn(c.WithName(prefix + c.Name())); err != nil {
			return nil, err
		}
		res.AddedColumns = append(res.AddedColumns, prefix+c.Name())
	}
	return res, nil
}

// requireMatchesReference requires a live join's outcome (got, err) to
// equal the frozen join's on the same inputs: the same error-ness, match
// count, added columns and table digest.
func requireMatchesReference(t *testing.T, base, foreign *dataframe.Table, spec *Spec, got *Result, err error) {
	t.Helper()
	want, werr := refHardJoin(base, foreign, spec)
	if (err == nil) != (werr == nil) {
		t.Fatalf("error mismatch: live %v, reference %v", err, werr)
	}
	if err != nil {
		return
	}
	if got.Matched != want.Matched {
		t.Fatalf("matched %d, reference %d", got.Matched, want.Matched)
	}
	if fmt.Sprint(got.AddedColumns) != fmt.Sprint(want.AddedColumns) {
		t.Fatalf("added %v, reference %v", got.AddedColumns, want.AddedColumns)
	}
	if got.Table.Digest() != want.Table.Digest() {
		requireTablesIdentical(t, got.Table, want.Table)
		t.Fatalf("digest %#x, reference %#x", got.Table.Digest(), want.Table.Digest())
	}
}

// hardSpec builds a hard spec over same-named key columns.
func hardSpec(names ...string) *Spec {
	s := &Spec{}
	for _, n := range names {
		s.Keys = append(s.Keys, KeyPair{BaseColumn: n, ForeignColumn: n, Kind: Hard})
	}
	return s
}

// referenceCases are the hard joins whose answer the in-place join must
// keep: one per way the grouping, the probe or a reduction can go wrong.
func referenceCases() map[string]func() (*dataframe.Table, *dataframe.Table, *Spec) {
	nz := math.Copysign(0, -1)
	nan := math.NaN()
	return map[string]func() (*dataframe.Table, *dataframe.Table, *Spec){
		"duplicate keys": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("k", []string{"a", "b", "c", "a", "d", "b"}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("k", []string{"a", "b", "a", "c", "a", "b"}),
				dataframe.NewNumeric("v", []float64{1, nan, 2, 3, 4.5, nan}),
				dataframe.NewCategorical("m", []string{"x", "y", "y", "", "x", "z"}),
				dataframe.NewTime("t", []int64{10, dataframe.MissingTime, 21, 30, 40, dataframe.MissingTime}))
			return base, foreign, hardSpec("k")
		},
		"a repeated float key": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			// A mean of the key 0.1 ×3 is 0.10000000000000002.
			base := dataframe.MustNewTable("b", dataframe.NewNumeric("k", []float64{0.1, 0.2, 0.3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewNumeric("k", []float64{0.1, 0.1, 0.1, 0.2, 0.3}),
				dataframe.NewNumeric("v", []float64{1, 2, 3, 4, 6}))
			return base, foreign, hardSpec("k")
		},
		"missing key components": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewNumeric("n", []float64{1, nan, 1, 2}),
				dataframe.NewCategorical("c", []string{"x", "x", "", "y"}),
				dataframe.NewTime("t", []int64{5, 5, 5, dataframe.MissingTime}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewNumeric("n", []float64{1, nan, 1, 2, 1}),
				dataframe.NewCategorical("c", []string{"x", "x", "", "y", "x"}),
				dataframe.NewTime("t", []int64{5, 5, 5, dataframe.MissingTime, 5}),
				dataframe.NewNumeric("v", []float64{10, 20, 30, 40, 50}))
			return base, foreign, hardSpec("n", "c", "t")
		},
		"composite parts holding the separator": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("a", []string{"x\x1fy", "x", "1:x", "1"}),
				dataframe.NewCategorical("c", []string{"z", "y\x1fz", "y", ":xy"}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("a", []string{"x\x1fy", "x", "1:x", "1", "x\x1fy"}),
				dataframe.NewCategorical("c", []string{"z", "q", "y", ":xy", "z"}),
				dataframe.NewNumeric("v", []float64{10, 20, 30, 40, 50}))
			return base, foreign, hardSpec("a", "c")
		},
		"a dictionary holding a string twice": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategoricalCodes("k", []int{0, 1, 2, -1}, []string{"a", "b", "a"}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategoricalCodes("k", []int{2, 0, 1, 2}, []string{"b", "a", "a"}),
				dataframe.NewCategoricalCodes("m", []int{0, 2, 1, 2}, []string{"p", "q", "p"}),
				dataframe.NewNumeric("v", []float64{1, 2, 3, 4}))
			return base, foreign, hardSpec("k")
		},
		"signed zero": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b", dataframe.NewNumeric("k", []float64{0, nz, 1, nz}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewNumeric("k", []float64{nz, 0, nz, 1}),
				dataframe.NewNumeric("v", []float64{nz, nz, 1, nz}),
				dataframe.NewNumeric("w", []float64{nan, 2, nan, math.Float64frombits(0x7ff8000000000123)}))
			return base, foreign, hardSpec("k")
		},
		"mixed kinds": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewNumeric("k", []float64{1, 2.5, 86400}),
				dataframe.NewTime("t", []int64{86400, 0, 86400}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("k", []string{"1", "2.5", "1", "86400"}),
				dataframe.NewNumeric("t", []float64{86400, 0, 86400, 86400}),
				dataframe.NewNumeric("v", []float64{1, 2, 3, 4}))
			return base, foreign, hardSpec("k", "t")
		},
		"soft key forced exact": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b", dataframe.NewNumeric("x", []float64{1, 2, 3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewNumeric("x", []float64{3, 1, 3}),
				dataframe.NewNumeric("v", []float64{1, 2, 3}))
			return base, foreign, &Spec{Keys: []KeyPair{{BaseColumn: "x", ForeignColumn: "x", Kind: Soft}}, Method: HardExact}
		},
	}
}

// randomReferenceCase draws a composite-key join over small key domains, so
// keys repeat on both sides, with missing components, ±0 and a dictionary
// holding a string twice.
func randomReferenceCase(seed int64) (*dataframe.Table, *dataframe.Table, *Spec) {
	rng := rand.New(rand.NewSource(seed))
	nums := []float64{0, math.Copysign(0, -1), 0.1, 1, 2.5, math.NaN()}
	dict := []string{"a", "b", "a", "c"}
	num := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = nums[rng.Intn(len(nums))]
		}
		return out
	}
	codes := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(len(dict)+1) - 1
		}
		return out
	}
	times := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(4)) * 3600
			if rng.Intn(8) == 0 {
				out[i] = dataframe.MissingTime
			}
		}
		return out
	}
	nb, nf := 20+rng.Intn(20), 10+rng.Intn(40)
	base := dataframe.MustNewTable("b",
		dataframe.NewNumeric("n", num(nb)),
		dataframe.NewCategoricalCodes("c", codes(nb), dict))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("n", num(nf)),
		dataframe.NewCategoricalCodes("c", codes(nf), dict),
		dataframe.NewNumeric("v", num(nf)),
		dataframe.NewCategoricalCodes("m", codes(nf), dict),
		dataframe.NewTime("t", times(nf)))
	if seed%2 == 0 {
		return base, foreign, hardSpec("n", "c")
	}
	return base, foreign, hardSpec("c")
}

// TestHardJoinMatchesReference holds the in-place hard join to the frozen
// aggregate-then-gather join: the named cases and 40 random ones, on the
// hashed plane and under forced collisions, run concurrently over 1 and 8
// workers against shared input tables.
func TestHardJoinMatchesReference(t *testing.T) {
	type tc struct {
		name          string
		base, foreign *dataframe.Table
		spec          *Spec
	}
	var cases []tc
	for name, mk := range referenceCases() {
		b, f, s := mk()
		cases = append(cases, tc{name, b, f, s})
	}
	for seed := int64(0); seed < 40; seed++ {
		b, f, s := randomReferenceCase(seed)
		cases = append(cases, tc{fmt.Sprintf("random%d", seed), b, f, s})
	}
	for _, mask := range []uint64{^uint64(0), 0, 0x3} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("mask%#x/workers%d", mask, workers), func(t *testing.T) {
				got := make([]*Result, len(cases))
				errs := make([]error, len(cases))
				parallel.SetMaxWorkers(workers)
				defer parallel.SetMaxWorkers(0)
				withHashMask(mask, func() {
					parallel.ForEach(workers, len(cases), func(i int) {
						got[i], errs[i] = Execute(cases[i].base, cases[i].foreign, cases[i].spec, nil)
					})
				})
				for i, c := range cases {
					t.Run(c.name, func(t *testing.T) {
						requireMatchesReference(t, c.base, c.foreign, c.spec, got[i], errs[i])
					})
				}
			})
		}
	}
}

package join

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

// fuzzSpec decodes a key list of the form "base>foreign:s,base>foreign" (":s"
// marks a soft pair) into a Spec; anything it cannot split becomes a column
// name as is, which is the point.
func fuzzSpec(keys string, method int, resample bool, prefix string) *Spec {
	s := &Spec{Method: SoftMethod(method), TimeResample: resample, Prefix: prefix}
	if keys == "" {
		return s
	}
	for _, part := range strings.Split(keys, ",") {
		kp := KeyPair{}
		if rest, ok := strings.CutSuffix(part, ":s"); ok {
			part, kp.Kind = rest, Soft
		}
		kp.BaseColumn, kp.ForeignColumn, _ = strings.Cut(part, ">")
		s.Keys = append(s.Keys, kp)
	}
	return s
}

// FuzzJoinSpec drives Spec.Validate and Execute with arbitrary specs over a
// two-row base and a four-row foreign table holding one column of every kind
// (and a NaN, an Inf and a missing time among the keys; the foreign table
// repeats keys, holds "a" twice in one dictionary, a -0, and strings with
// the composite separator and length-prefix bytes): a spec is either
// rejected with an error or executed, never a panic, and an executed join
// keeps exactly the base's rows and reports the columns it added. A hard-key
// join also equals the frozen aggregate-then-gather join (reference_test.go),
// on the hashed plane and under forced collisions. Discovery is noisy by
// design and run specs arrive over HTTP, so a spec is untrusted input.
func FuzzJoinSpec(f *testing.F) {
	for _, seed := range []struct {
		keys     string
		method   int
		resample bool
		prefix   string
	}{
		{"k>k", int(TwoWayNearest), true, "t0."},
		{"k>k,x>x:s", int(TwoWayNearest), false, ""},
		{"k>k,x>x:s", int(NearestNeighbor), false, "p."},
		{"ts>ts:s", int(TwoWayNearest), true, ""},
		{"ts>ts:s,k>k", int(HardExact), true, ""},
		{"x>x:s,lat>lat:s", int(TwoWayNearest), false, ""},
		{"k>x", int(TwoWayNearest), false, ""},
		{"k>k:s", int(NearestNeighbor), false, ""},
		{"x>ts:s", int(NearestNeighbor), true, ""},
		{"inf>inf", int(HardExact), false, ""},
		{"nan>nan:s", int(TwoWayNearest), false, ""},
		{"k>k,k>k", 7, true, "k"},
		{"nope>k", 0, false, ""},
		{">", -3, true, "\x00"},
		{"", 0, false, ""},
		{"k>k", int(HardExact), false, ""},
		{"x>x", int(TwoWayNearest), false, "d."},
		{"k>k,s>s", int(TwoWayNearest), false, ""},
		{"nan>nan,k>k", int(TwoWayNearest), false, ""},
		{"x>k", int(TwoWayNearest), false, ""},
		{"ts>x,k>k", int(NearestNeighbor), false, ""},
		{"ts>ts", int(TwoWayNearest), false, ""},
		{"x>x:s", int(HardExact), false, ""},
	} {
		f.Add(seed.keys, seed.method, seed.resample, seed.prefix)
	}

	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewCategorical("s", []string{"a\x1fb", "1:a"}),
		dataframe.NewNumeric("x", []float64{1, 2}),
		dataframe.NewNumeric("lat", []float64{40.7, 40.8}),
		dataframe.NewNumeric("lon", []float64{-74, -73.9}),
		dataframe.NewNumeric("nan", []float64{math.NaN(), 1}),
		dataframe.NewNumeric("inf", []float64{math.Inf(1), 1}),
		dataframe.NewTime("ts", []int64{1514764800, dataframe.MissingTime}),
		dataframe.NewNumeric("v", []float64{0, 20}),
	)
	foreign := dataframe.MustNewTable("foreign",
		dataframe.NewCategoricalCodes("k", []int{0, 1, 2, 2}, []string{"a", "b", "a"}),
		dataframe.NewCategorical("s", []string{"a\x1fb", "1:a", "a\x1fb", "1"}),
		dataframe.NewNumeric("x", []float64{1, 2.25, 1, math.Copysign(0, -1)}),
		dataframe.NewNumeric("lat", []float64{40.95, 40.8, 40.7, 40.7}),
		dataframe.NewNumeric("lon", []float64{-74, -73.65, -74, -74}),
		dataframe.NewNumeric("nan", []float64{math.NaN(), 1, 1, math.NaN()}),
		dataframe.NewNumeric("inf", []float64{math.Inf(1), 1, 1, 1}),
		dataframe.NewTime("ts", []int64{1514765700, dataframe.MissingTime, 1514765700, 1514764800}),
		dataframe.NewNumeric("v", []float64{2.5, 20, 3.5, 0.1}),
	)
	f.Fuzz(func(t *testing.T, keys string, method int, resample bool, prefix string) {
		spec := fuzzSpec(keys, method, resample, prefix)
		verr := spec.Validate(base, foreign)
		res, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1)))
		if verr != nil && err == nil {
			t.Fatalf("Execute ran a spec Validate rejected (%v): %+v", verr, spec)
		}
		if err != nil {
			return
		}
		if res.Table.NumRows() != base.NumRows() || res.Table.NumCols() != base.NumCols()+len(res.AddedColumns) {
			t.Fatalf("join of %+v returned %d×%d for a %d×%d base and %d added columns", spec,
				res.Table.NumRows(), res.Table.NumCols(), base.NumRows(), base.NumCols(), len(res.AddedColumns))
		}
		for _, name := range res.AddedColumns {
			if !res.Table.HasColumn(name) {
				t.Fatalf("added column %q is not in the result", name)
			}
		}
		if spec.exact() {
			requireMatchesReference(t, base, foreign, spec, res, err)
			withHashMask(0, func() { res, err = Execute(base, foreign, spec, nil) })
			requireMatchesReference(t, base, foreign, spec, res, err)
		}
	})
}

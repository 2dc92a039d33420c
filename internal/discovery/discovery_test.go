package discovery

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/join"
)

func TestDiscoverFindsCategoricalKey(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("city", []string{"nyc", "bos", "sfo"}),
		dataframe.NewNumeric("y", []float64{1, 2, 3}),
	)
	good := dataframe.MustNewTable("pop",
		dataframe.NewCategorical("city", []string{"nyc", "bos", "sfo", "lax"}),
		dataframe.NewNumeric("population", []float64{8, 0.7, 0.9, 4}),
	)
	bad := dataframe.MustNewTable("junk",
		dataframe.NewCategorical("code", []string{"q1", "q2"}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	cands := Discover(base, []*dataframe.Table{good, bad}, "y", Options{})
	if len(cands) == 0 {
		t.Fatal("no candidates discovered")
	}
	top := cands[0]
	if top.Table.Name() != "pop" || top.Keys[0].BaseColumn != "city" {
		t.Fatalf("top candidate = %v onto %s", top.Keys, top.Table.Name())
	}
	if top.Keys[0].Kind != join.Hard {
		t.Fatal("categorical overlap should be a hard key")
	}
	for _, c := range cands {
		if c.Table.Name() == "junk" {
			t.Fatal("non-overlapping table should produce no candidate")
		}
	}
}

func TestDiscoverTimeIsSoft(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewTime("date", []int64{0, 86400, 172800}),
		dataframe.NewNumeric("y", []float64{1, 2, 3}),
	)
	weather := dataframe.MustNewTable("weather",
		dataframe.NewTime("ts", []int64{3600, 90000}),
		dataframe.NewNumeric("temp", []float64{10, 12}),
	)
	cands := Discover(base, []*dataframe.Table{weather}, "y", Options{})
	if len(cands) == 0 {
		t.Fatal("time overlap should be discovered")
	}
	if !cands[0].Soft || cands[0].Keys[0].Kind != join.Soft {
		t.Fatal("time key should be soft")
	}
}

func TestDiscoverExcludesTarget(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("y", []string{"a", "b"}),
	)
	other := dataframe.MustNewTable("other",
		dataframe.NewCategorical("y", []string{"a", "b"}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	cands := Discover(base, []*dataframe.Table{other}, "y", Options{})
	if len(cands) != 0 {
		t.Fatal("target column must never be used as a key")
	}
}

func TestDiscoverComposite(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("a", []string{"x", "y", "z"}),
		dataframe.NewCategorical("b", []string{"1", "2", "3"}),
		dataframe.NewNumeric("t", []float64{0, 0, 0}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("a", []string{"x", "y", "z"}),
		dataframe.NewCategorical("b", []string{"1", "2", "3"}),
		dataframe.NewNumeric("v", []float64{1, 2, 3}),
	)
	cands := Discover(base, []*dataframe.Table{foreign}, "t", Options{})
	foundComposite := false
	for _, c := range cands {
		if len(c.Keys) == 2 {
			foundComposite = true
		}
	}
	if !foundComposite {
		t.Fatal("two overlapping hard keys should yield a composite candidate")
	}
}

func TestNameAffinity(t *testing.T) {
	if nameAffinity(normalizeName("pickup_date"), normalizeName("PickupDate")) != 1 {
		t.Fatal("normalized equal names should score 1")
	}
	if nameAffinity(normalizeName("date"), normalizeName("pickup_date")) != 0.5 {
		t.Fatal("containment should score 0.5")
	}
	if nameAffinity("foo", "bar") != 0 {
		t.Fatal("unrelated names should score 0")
	}
}

func TestNumericHardKeyByContainment(t *testing.T) {
	base := dataframe.MustNewTable("base",
		dataframe.NewNumeric("zip", []float64{10001, 10002, 10003}),
		dataframe.NewNumeric("y", []float64{1, 2, 3}),
	)
	foreign := dataframe.MustNewTable("zips",
		dataframe.NewNumeric("zip", []float64{10001, 10002, 10003, 10004}),
		dataframe.NewNumeric("income", []float64{1, 2, 3, 4}),
	)
	cands := Discover(base, []*dataframe.Table{foreign}, "y", Options{})
	found := false
	for _, c := range cands {
		if c.Keys[0].BaseColumn == "zip" && c.Keys[0].Kind == join.Hard {
			found = true
		}
	}
	if !found {
		t.Fatal("integer-id containment should yield a hard numeric key")
	}
}

// A base table saved with a byte-order mark (as Excel saves CSV) proposes the
// candidates the same file without one does: the first column keeps its name,
// so its name affinity, and a target in first place is still the target.
func TestDiscoverIgnoresByteOrderMark(t *testing.T) {
	repo := []*dataframe.Table{
		dataframe.MustNewTable("stats",
			dataframe.NewCategorical("school_id", labels("s", 0, 40)),
			dataframe.NewNumeric("score", ints(50, 40)),
		),
		dataframe.MustNewTable("grades",
			dataframe.NewNumeric("performance", ints(0, 40)),
			dataframe.NewNumeric("rank", ints(5, 40)),
		),
	}
	var keyFirst, targetFirst strings.Builder
	keyFirst.WriteString("school_id,performance\n")
	targetFirst.WriteString("performance,school_id\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&keyFirst, "s%d,%d\n", i, i%4)
		fmt.Fprintf(&targetFirst, "%d,s%d\n", i%4, i)
	}
	for label, text := range map[string]string{"key first": keyFirst.String(), "target first": targetFirst.String()} {
		plain, err := dataframe.ReadCSV("base", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		marked, err := dataframe.ReadCSV("base", strings.NewReader("\ufeff"+text))
		if err != nil {
			t.Fatal(err)
		}
		want := Discover(plain, repo, "performance", Options{})
		if len(want) == 0 {
			t.Fatalf("%s: no candidates; the comparison is vacuous", label)
		}
		requireSameCandidates(t, label, Discover(marked, repo, "performance", Options{}), want, true)
	}
}

// Discover builds a foreign numeric column's value set only where a
// containment check could read it: where its range meets a base numeric
// column other than the target. The base side keeps every set, and under
// UseMinHash so does every foreign column.
func TestProfileAllocsNoDisjointValueSet(t *testing.T) {
	opts := Options{}
	opts.defaults()
	base := profileTable(dataframe.MustNewTable("base",
		dataframe.NewNumeric("id", ints(0, 100)),
		dataframe.NewNumeric("y", ints(1000, 100)), // the target: its range opens nothing
		dataframe.NewCategorical("zone", labels("z", 0, 100)),
	), opts, nil)
	for i := range base.cols {
		if c := &base.cols[i]; c.kind == dataframe.Numeric && c.nums == nil {
			t.Fatalf("base column %s has no value set", c.name)
		}
	}
	needSet := base.keyRanges("y", opts)
	for _, tc := range []struct {
		col  dataframe.Column
		want bool
	}{
		{dataframe.NewNumeric("ref", ints(50, 100)), true},       // meets id's range
		{dataframe.NewNumeric("edge", ints(99, 10)), true},       // touches it at 99
		{dataframe.NewNumeric("far", ints(500, 100)), false},     // disjoint from id
		{dataframe.NewNumeric("like_y", ints(1000, 100)), false}, // meets only the target's range
		{dataframe.NewNumeric("empty", []float64{math.NaN()}), false},
	} {
		if p := profileColumn(tc.col, opts, needSet); (p.nums != nil) != tc.want {
			t.Errorf("foreign column %s: value set built = %v, want %v", p.name, p.nums != nil, tc.want)
		}
	}
	minhash := opts
	minhash.UseMinHash = true
	if base.keyRanges("y", minhash) != nil {
		t.Fatal("under UseMinHash every foreign column needs its set for its signature")
	}
}

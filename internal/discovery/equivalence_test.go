package discovery

import (
	"fmt"
	"math"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// requireSameCandidates fails unless got is want bit for bit: same foreign
// tables (by identity), key pairs, flags, score bits and order.
func requireSameCandidates(t testing.TB, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		sameTable := g.Table == w.Table
		sameKeys := len(g.Keys) == len(w.Keys)
		for k := 0; sameKeys && k < len(w.Keys); k++ {
			sameKeys = g.Keys[k] == w.Keys[k]
		}
		if !sameTable || !sameKeys || g.Soft != w.Soft ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: candidate %d differs\n got  %s %+v soft=%v score=%x\n want %s %+v soft=%v score=%x",
				label, i, g.Table.Name(), g.Keys, g.Soft, math.Float64bits(g.Score),
				w.Table.Name(), w.Keys, w.Soft, math.Float64bits(w.Score))
		}
	}
}

// requireMatchesReference checks Discover against the frozen reference at 1
// and 8 workers.
func requireMatchesReference(t testing.TB, label string, base *dataframe.Table, repo []*dataframe.Table, target string, opts Options) {
	t.Helper()
	want := refDiscover(base, repo, target, opts)
	defer parallel.SetMaxWorkers(0)
	for _, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		got := Discover(base, repo, target, opts)
		requireSameCandidates(t, fmt.Sprintf("%s workers=%d", label, workers), got, want)
	}
}

// equivalenceOptions are the option sets every equivalence case runs under:
// the defaults and a value cap small enough to land mid-column.
var equivalenceOptions = map[string]Options{
	"default": {},
	"cap7":    {MaxValueSample: 7, MinContainment: 0.01},
}

func TestDiscoverMatchesReferenceOnCorpora(t *testing.T) {
	corpora := map[string]*synth.Corpus{
		"taxi":     synth.Taxi(synth.Config{Seed: 3, Scale: 0.2}),
		"poverty":  synth.Poverty(synth.Config{Seed: 3, Scale: 0.3}),
		"school-l": synth.SchoolL(synth.Config{Seed: 3, Scale: 0.1}),
	}
	for name, c := range corpora {
		for optName, opts := range equivalenceOptions {
			label := name + "/" + optName
			requireMatchesReference(t, label, c.Base, c.Repo, c.Target, opts)
			if n := len(Discover(c.Base, c.Repo, c.Target, opts)); n == 0 {
				t.Fatalf("%s: no candidates — the comparison is vacuous", label)
			}
		}
	}
}

// ints returns 0..n-1 shifted by from, as floats.
func ints(from, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(from + i)
	}
	return out
}

func TestDiscoverMatchesReferenceOnAdversarialTables(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	tbl := dataframe.MustNewTable
	num := dataframe.NewNumeric
	cat := dataframe.NewCategorical
	cases := []struct {
		name   string
		base   *dataframe.Table
		repo   []*dataframe.Table
		target string
	}{
		{
			// "0" and "-0" were different strings; they stay different keys.
			name: "signed zero",
			base: tbl("base", num("k", []float64{0, 0, 1}), num("y", []float64{1, 2, 3})),
			repo: []*dataframe.Table{
				tbl("neg", num("k", []float64{negZero, 1}), num("v", []float64{5, 6})),
				tbl("pos", num("k", []float64{0, 2}), num("v", []float64{5, 6})),
				tbl("both", num("k", []float64{negZero, 0}), num("v", []float64{5, 6})),
			},
			target: "y",
		},
		{
			name: "NaN-only and empty columns",
			base: tbl("base", num("k", []float64{nan, nan, nan}), cat("c", []string{"", "", ""}), num("id", ints(0, 3))),
			repo: []*dataframe.Table{
				tbl("f", num("k", []float64{nan, 1}), cat("c", []string{"", "x"}), num("id", []float64{nan, nan})),
				tbl("t", dataframe.NewTime("when", []int64{dataframe.MissingTime, dataframe.MissingTime}), num("id", ints(1, 2))),
			},
			target: "y",
		},
		{
			// Both caps (the default 5000 and cap7) land mid-column, and the
			// foreign column repeats early values after new ones.
			name: "more distinct values than the cap",
			base: tbl("base", num("k", ints(0, 6000)), cat("c", labels("v", 0, 6000)), num("y", ints(0, 6000))),
			repo: []*dataframe.Table{
				tbl("tail", num("k", ints(3000, 6000)), cat("c", labels("v", 3000, 6000))),
				tbl("dups", num("k", append(append(ints(0, 4), ints(0, 4)...), ints(100, 5500)...)),
					cat("c", append(append(labels("v", 0, 4), labels("v", 0, 4)...), labels("v", 100, 5500)...))),
			},
			target: "y",
		},
		{
			// Dict holds "a" twice (codes 0 and 3), never uses "ghost", and
			// the column has a missing row.
			name: "duplicate and unused Dict entries",
			base: tbl("base",
				dataframe.NewCategoricalCodes("c", []int{0, 3, 1, -1, 0}, []string{"a", "b", "ghost", "a"}),
				num("y", ints(0, 5))),
			repo: []*dataframe.Table{
				tbl("f", dataframe.NewCategoricalCodes("c", []int{2, 2, 1, 0}, []string{"ghost", "b", "a", "unused"})),
				tbl("g", cat("c", []string{"ghost", "b"})),
			},
			target: "y",
		},
		{
			// The target contains every foreign id and is named like a
			// coordinate; it must never be a key.
			name: "target that is a plausible key",
			base: tbl("base", num("lat", ints(0, 5)), num("lon", ints(10, 5)), num("id", ints(0, 5))),
			repo: []*dataframe.Table{
				tbl("f", num("lat", ints(0, 5)), num("lon", ints(10, 5)), num("latitude", ints(2, 5))),
			},
			target: "lat",
		},
		{
			name: "zero-row tables",
			base: tbl("base", num("k", nil), cat("c", nil), dataframe.NewTime("t", nil), num("y", nil)),
			repo: []*dataframe.Table{
				tbl("empty", num("k", nil), cat("c", nil), dataframe.NewTime("t", nil)),
				tbl("full", num("k", ints(0, 3)), cat("c", []string{"a", "b", "c"}), dataframe.NewTime("t", []int64{1, 2, 3})),
				tbl("nocols"),
			},
			target: "y",
		},
		{
			name: "time ranges, soft numeric keys and mixed kinds",
			base: tbl("base",
				dataframe.NewTime("pickup_time", []int64{100, 200, 300, dataframe.MissingTime}),
				num("distance", []float64{0.5, 1.5, 2.5, 3.5}),
				cat("zone", []string{"a", "b", "a", ""}),
				num("y", ints(0, 4))),
			repo: []*dataframe.Table{
				tbl("w", dataframe.NewTime("time", []int64{150, 250}), num("trip_distance", []float64{1.1, 2.2}), num("zone", ints(0, 2))),
				tbl("far", dataframe.NewTime("time", []int64{900, 950}), num("distance", []float64{100, 200})),
			},
			target: "y",
		},
	}
	for _, tc := range cases {
		for optName, opts := range equivalenceOptions {
			requireMatchesReference(t, tc.name+"/"+optName, tc.base, tc.repo, tc.target, opts)
		}
	}
}

func labels(prefix string, from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, from+i)
	}
	return out
}

// fuzzTable builds a small table from fuzz bytes: up to four columns of
// mixed kinds over a tiny value alphabet, so collisions, missing cells, signed
// zeros, duplicate dictionary entries and coordinate-like names all occur.
func fuzzTable(name string, data []byte) *dataframe.Table {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	names := []string{"id", "lat", "lon", "key", "Key_", "time", "zone", ""}
	values := []float64{0, math.Copysign(0, -1), 1, 2, 3, math.NaN(), 1e300, -2.5}
	dict := []string{"a", "b", "a", "c", "unused"}
	rows := int(next() % 7)
	t := dataframe.MustNewTable(name)
	for c := int(next()%4) + 1; c > 0; c-- {
		colName := names[next()%byte(len(names))]
		if t.HasColumn(colName) {
			continue
		}
		var col dataframe.Column
		switch next() % 3 {
		case 0:
			v := make([]float64, rows)
			for i := range v {
				v[i] = values[next()%byte(len(values))]
			}
			col = dataframe.NewNumeric(colName, v)
		case 1:
			codes := make([]int, rows)
			for i := range codes {
				codes[i] = int(next()%5) - 1 // -1 is missing; code 4 ("unused") never appears
			}
			col = dataframe.NewCategoricalCodes(colName, codes, dict)
		default:
			u := make([]int64, rows)
			for i := range u {
				u[i] = int64(next() % 6)
				if u[i] == 5 {
					u[i] = dataframe.MissingTime
				}
			}
			col = dataframe.NewTime(colName, u)
		}
		if err := t.AddColumn(col); err != nil {
			panic(err)
		}
	}
	return t
}

func FuzzDiscoverMatchesReference(f *testing.F) {
	f.Add([]byte{5, 2, 0, 0, 0, 1, 2, 3, 4, 1, 1, 0, 1, 2, 3, 4}, []byte{6, 3, 0, 0, 1, 1, 2, 3, 2, 1, 1, 0, 0, 0, 2, 2, 2, 1, 1}, uint8(0), uint8(3))
	f.Add([]byte{3, 3, 1, 0, 2, 3, 4, 2, 0, 5, 6, 7, 5, 2, 1, 2, 3}, []byte{3, 2, 1, 0, 4, 3, 2, 2, 0, 7, 6, 5}, uint8(1), uint8(0))
	f.Add([]byte{}, []byte{1}, uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, baseData, foreignData []byte, targetPick, limit uint8) {
		base := fuzzTable("base", baseData)
		repo := []*dataframe.Table{fuzzTable("f1", foreignData), fuzzTable("f2", append(foreignData, baseData...))}
		target := "y"
		if cols := base.ColumnNames(); len(cols) > 0 && targetPick%2 == 0 {
			target = cols[int(targetPick/2)%len(cols)]
		}
		opts := Options{MaxValueSample: int(limit % 5), MinContainment: 0.01}
		requireMatchesReference(t, "fuzz", base, repo, target, opts)
	})
}

// TestMatchColumnsAllocs is the allocation gate for the discovery hot loop:
// scoring a column pair from built profiles must not allocate — no value sets
// rebuilt, no floats formatted, no names normalized.
func TestMatchColumnsAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	opts := Options{}
	opts.defaults()
	pairs := [][2]columnProfile{
		{profileColumn(dataframe.NewNumeric("school_id", ints(0, 500)), opts, nil), profileColumn(dataframe.NewNumeric("School-ID", ints(250, 500)), opts, nil)},
		{profileColumn(dataframe.NewNumeric("score", []float64{0.5, 1.5}), opts, nil), profileColumn(dataframe.NewNumeric("test_score", []float64{1.1, 9}), opts, nil)},
		{profileColumn(dataframe.NewCategorical("zone", labels("z", 0, 500)), opts, nil), profileColumn(dataframe.NewCategorical("zone", labels("z", 100, 500)), opts, nil)},
		{profileColumn(dataframe.NewTime("t", []int64{1, 5}), opts, nil), profileColumn(dataframe.NewTime("time", []int64{2, 9}), opts, nil)},
	}
	for i := range pairs {
		bc, fc := &pairs[i][0], &pairs[i][1]
		if _, _, ok := matchColumns(bc, fc, opts); !ok {
			t.Fatalf("pair %d (%s, %s) does not match; the gate would measure the reject path only", i, bc.name, fc.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { matchColumns(bc, fc, opts) }); allocs != 0 {
			t.Errorf("matchColumns(%s, %s) allocates %v times per call, want 0", bc.name, fc.name, allocs)
		}
	}
}

// BenchmarkDiscover times discovery over the wide-repo benchmark corpus
// (school-l ×1: 1,600 base rows against 350 tables) and reports speedup_x at 1
// worker vs all cores, like `make bench-parallel`.
func BenchmarkDiscover(b *testing.B) {
	c := synth.SchoolL(synth.Config{Seed: 1, Scale: 1})
	var n int
	b.ReportAllocs()
	testenv.BenchSpeedup(b, func() { n = len(Discover(c.Base, c.Repo, c.Target, Options{})) })
	b.ReportMetric(float64(n), "candidates")
}

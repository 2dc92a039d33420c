package dataframe

import (
	"fmt"
	"math"
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

// encodeFixture builds a table exercising every encoded column type: numeric,
// time with missing entries, low-cardinality categorical with missing
// entries, and a categorical wide enough to trigger the <other> pooling.
func encodeFixture(rows int) *Table {
	num := make([]float64, rows)
	unix := make([]int64, rows)
	lo := make([]string, rows)
	hi := make([]string, rows)
	for i := 0; i < rows; i++ {
		num[i] = float64(i) * 1.5
		if i%7 == 0 {
			unix[i] = MissingTime
		} else {
			unix[i] = int64(i) * 3600
		}
		if i%5 == 0 {
			lo[i] = ""
		} else {
			lo[i] = fmt.Sprintf("c%d", i%3)
		}
		hi[i] = fmt.Sprintf("v%d", i%(MaxOneHotCardinality+8))
	}
	return MustNewTable("t",
		NewNumeric("num", num),
		NewTime("ts", unix),
		NewCategorical("lo", lo),
		NewCategorical("hi", hi),
		NewNumeric("target", num))
}

// viewsIdentical asserts two numeric views agree bit-for-bit.
func viewsIdentical(t *testing.T, a, b *NumericView) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for j := range a.Names {
		if a.Names[j] != b.Names[j] {
			t.Fatalf("name %d: %q vs %q", j, a.Names[j], b.Names[j])
		}
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("entry %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

// TestToNumericViewMatchesBinarize holds the typed fill to the
// column-at-a-time encoding: numeric columns pass through, time columns
// become Unix seconds (NaN where missing), each categorical column becomes
// exactly Binarize's indicator columns, and excluded columns are left out.
func TestToNumericViewMatchesBinarize(t *testing.T) {
	tbl := encodeFixture(100)
	want := &NumericView{Rows: tbl.NumRows()}
	var cols [][]float64
	for _, c := range tbl.Columns() {
		switch col := c.(type) {
		case *NumericColumn:
			if col.Name() == "target" {
				continue
			}
			want.Names = append(want.Names, col.Name())
			cols = append(cols, col.Values)
		case *TimeColumn:
			v := make([]float64, len(col.Unix))
			for i, u := range col.Unix {
				v[i] = float64(u)
				if u == MissingTime {
					v[i] = math.NaN()
				}
			}
			want.Names = append(want.Names, col.Name())
			cols = append(cols, v)
		case *CategoricalColumn:
			for _, ind := range Binarize(col) {
				want.Names = append(want.Names, ind.Name())
				cols = append(cols, ind.Values)
			}
		}
	}
	want.Cols = len(cols)
	for i := 0; i < want.Rows; i++ {
		for _, col := range cols {
			want.Data = append(want.Data, col[i])
		}
	}
	viewsIdentical(t, tbl.ToNumericView("target"), want)
}

// TestBinarizeMatchesPlan pins Binarize to the shared plan so the two encode
// paths cannot drift.
func TestBinarizeMatchesPlan(t *testing.T) {
	tbl := encodeFixture(64)
	col := tbl.Column("hi").(*CategoricalColumn)
	names, remap := binarizePlan(col)
	inds := Binarize(col)
	if len(inds) != len(names) {
		t.Fatalf("Binarize made %d columns, plan has %d", len(inds), len(names))
	}
	for j, ind := range inds {
		if ind.Name() != names[j] {
			t.Fatalf("indicator %d named %q, plan says %q", j, ind.Name(), names[j])
		}
	}
	for i, code := range col.Codes {
		for j := range inds {
			want := 0.0
			if code >= 0 && remap[code] == j {
				want = 1
			}
			if inds[j].Values[i] != want {
				t.Fatalf("row %d indicator %d = %v, want %v", i, j, inds[j].Values[i], want)
			}
		}
	}
}

// TestToNumericViewAllocs is the allocation-regression gate for the encode
// hot loop: the typed fill must allocate O(columns + categories) blocks, not
// O(cells) — the closure-per-element path it replaced also materialized every
// indicator column before copying it into the matrix. The fixture's
// categories stop growing at 48 rows, so from there on the count may not
// grow with the rows: 20 times the rows may add a few allocations of the
// runtime's own (122 → 123 on go1.24), never one per row.
func TestToNumericViewAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	allocs := func(rows int) float64 {
		tbl := encodeFixture(rows)
		return testing.AllocsPerRun(10, func() { tbl.ToNumericView("target") })
	}
	small, large := allocs(200), allocs(4000)
	if large > small+8 {
		t.Fatalf("encode allocates %.0f times per call at 4,000 rows and %.0f at 200: it grows with the rows", large, small)
	}
}

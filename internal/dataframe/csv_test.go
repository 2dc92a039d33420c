package dataframe

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/testenv"
)

func TestReadCSVInference(t *testing.T) {
	in := "date,city,amount\n2020-01-02,nyc,1.5\n2020-01-03,,\n,boston,2\n"
	tab, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("date").Kind() != Time {
		t.Fatalf("date kind = %v, want Time", tab.Column("date").Kind())
	}
	if tab.Column("city").Kind() != Categorical {
		t.Fatalf("city kind = %v", tab.Column("city").Kind())
	}
	if tab.Column("amount").Kind() != Numeric {
		t.Fatalf("amount kind = %v", tab.Column("amount").Kind())
	}
	if !tab.Column("date").IsMissing(2) || !tab.Column("city").IsMissing(1) || !tab.Column("amount").IsMissing(1) {
		t.Fatal("empty cells should be missing")
	}
	if got := tab.Column("amount").(*NumericColumn).Values[0]; got != 1.5 {
		t.Fatalf("amount[0] = %v", got)
	}
}

func TestReadCSVMixedFallsBackToCategorical(t *testing.T) {
	in := "v\n1\nx\n"
	tab, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("v").Kind() != Categorical {
		t.Fatalf("mixed column kind = %v, want Categorical", tab.Column("v").Kind())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := MustNewTable("rt",
		NewTime("ts", []int64{0, MissingTime}),
		NewCategorical("k", []string{"a", ""}),
		NewNumeric("v", []float64{1.25, math.NaN()}),
	)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 || back.NumCols() != 3 {
		t.Fatalf("round-trip shape = %dx%d", back.NumRows(), back.NumCols())
	}
	if got := back.Column("v").(*NumericColumn).Values[0]; got != 1.25 {
		t.Fatalf("v[0] = %v", got)
	}
	if !back.Column("v").IsMissing(1) || !back.Column("k").IsMissing(1) || !back.Column("ts").IsMissing(1) {
		t.Fatal("missing cells lost in round trip")
	}
	if got := back.Column("ts").(*TimeColumn).Unix[0]; got != 0 {
		t.Fatalf("ts[0] = %v", got)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.csv")
	tab := MustNewTable("sample", NewNumeric("x", []float64{3, 4}))
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "sample" {
		t.Fatalf("table name = %q, want sample", back.Name())
	}
	if got := back.Column("x").(*NumericColumn).Values[1]; got != 4 {
		t.Fatalf("x[1] = %v", got)
	}
}

func TestReadCSVEmpty(t *testing.T) {
	if _, err := ReadCSV("e", strings.NewReader("")); err == nil {
		t.Fatal("empty CSV should error")
	}
}

func TestReadCSVQuotedFields(t *testing.T) {
	in := "name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n"
	tab, err := ReadCSV("q", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Column("name").StringAt(0); got != "Smith, John" {
		t.Fatalf("quoted field = %q", got)
	}
	if got := tab.Column("notes").StringAt(0); got != `said "hi"` {
		t.Fatalf("escaped quotes = %q", got)
	}
}

func TestReadCSVAllEmptyColumn(t *testing.T) {
	in := "a,b\n1,\n2,\n"
	tab, err := ReadCSV("e", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// A column with no values at all defaults to categorical, all missing.
	c := tab.Column("b")
	if c.Kind() != Categorical || c.MissingCount() != 2 {
		t.Fatalf("empty column kind=%v missing=%d", c.Kind(), c.MissingCount())
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	// encoding/csv rejects ragged records; we surface that as an error.
	in := "a,b\n1\n"
	if _, err := ReadCSV("r", strings.NewReader(in)); err == nil {
		t.Fatal("ragged CSV should error")
	}
}

func TestCSVNumericPrecisionRoundTrip(t *testing.T) {
	vals := []float64{math.Pi, 1e-300, 1e300, -0.1, 12345678901234.5}
	tab := MustNewTable("p", NewNumeric("v", vals))
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("p", &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Column("v").(*NumericColumn).Values
	for i, w := range vals {
		if got[i] != w {
			t.Fatalf("v[%d] = %v, want %v (precision lost)", i, got[i], w)
		}
	}
}

func TestReadCSVRejectsDuplicateHeader(t *testing.T) {
	for _, in := range []string{
		"a,a\n1,2\n",
		"a, a \n1,2\n", // duplicate after trimming
		"col2,\n1,2\n", // empty header's generated name collides
	} {
		if _, err := ReadCSV("t", strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted a duplicate column name", in)
		} else if !strings.Contains(err.Error(), "duplicate column name") {
			t.Errorf("ReadCSV(%q) error = %v, want duplicate column name", in, err)
		}
	}
}

func TestReadCSVRejectsInfinity(t *testing.T) {
	for _, in := range []string{
		"v\n1\nInf\n",
		"v\n-Inf\n2\n",
		"v\n+infinity\n",
	} {
		if _, err := ReadCSV("t", strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted a non-finite numeric cell", in)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("ReadCSV(%q) error = %v, want non-finite", in, err)
		}
	}
}

func TestReadCSVNaNCellReadsAsMissing(t *testing.T) {
	tab, err := ReadCSV("t", strings.NewReader("v\nNaN\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Column("v").IsMissing(0) || tab.Column("v").IsMissing(1) {
		t.Fatal("literal NaN cell should read back as missing")
	}
}

// A bad cell deep in a large file must be located by 1-based data row and
// column name.
func TestReadCSVErrorLocatesRowAndColumn(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,price\n")
	for i := 1; i <= 500; i++ {
		if i == 457 {
			b.WriteString("457,Inf\n")
			continue
		}
		fmt.Fprintf(&b, "%d,%d.5\n", i, i)
	}
	_, err := ReadCSV("big", strings.NewReader(b.String()))
	if err == nil {
		t.Fatal("accepted a non-finite cell")
	}
	if !strings.Contains(err.Error(), "row 457") || !strings.Contains(err.Error(), `"price"`) {
		t.Fatalf("error does not locate the cell: %v", err)
	}
}

// A record with the wrong field count must be located by data row number.
func TestReadCSVErrorLocatesRaggedRow(t *testing.T) {
	in := "a,b\n1,2\n3,4\n5\n7,8\n"
	_, err := ReadCSV("t", strings.NewReader(in))
	if err == nil {
		t.Fatal("accepted a ragged record")
	}
	if !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("error does not name the data row: %v", err)
	}
}

// WriteCSVFile must be atomic: the destination only ever holds a complete
// CSV, and no temp file survives a successful write.
func TestWriteCSVFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	tab := MustNewTable("t", NewNumeric("v", []float64{1, 2, 3}))
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 {
		t.Fatalf("rows = %d", back.NumRows())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.csv" {
		t.Fatalf("unexpected artifacts in dir: %v", entries)
	}
	// Overwrite keeps the path readable at every point; a second write must
	// fully replace the first.
	tab2 := MustNewTable("t", NewNumeric("v", []float64{9}))
	if err := tab2.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back2.NumRows() != 1 {
		t.Fatalf("rows after overwrite = %d", back2.NumRows())
	}
}

// twoPassInferColumn is the inference inferColumn replaced, kept as the
// reference: one pass to pick the kind, a second to parse every cell again.
func twoPassInferColumn(table, name string, raw []string) (Column, error) {
	allTime, allNum, any := true, true, false
	for _, s := range raw {
		if s == "" {
			continue
		}
		any = true
		if _, ok := parseTime([]byte(s)); !ok {
			allTime = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			allNum = false
		}
	}
	switch {
	case any && allTime:
		unix := make([]int64, len(raw))
		for i, s := range raw {
			unix[i] = MissingTime
			if s != "" {
				unix[i], _ = parseTime([]byte(s))
			}
		}
		return NewTime(name, unix), nil
	case any && allNum:
		vals := make([]float64, len(raw))
		for i, s := range raw {
			vals[i] = math.NaN()
			if s != "" {
				vals[i], _ = strconv.ParseFloat(s, 64)
			}
			if math.IsInf(vals[i], 0) {
				return nil, fmt.Errorf("dataframe: CSV for table %q: row %d, column %q: non-finite value %q", table, i+1, name, s)
			}
		}
		return NewNumeric(name, vals), nil
	default:
		return NewCategorical(name, append([]string(nil), raw...)), nil
	}
}

// inferStrings runs inferColumn over raw, laid out as the reader lays out a
// column: cells as spans of one buffer.
func inferStrings(table, name string, raw []string) (Column, error) {
	var buf []byte
	cells := make([]span, len(raw))
	for i, s := range raw {
		cells[i] = span{uint32(len(buf)), uint32(len(buf) + len(s))}
		buf = append(buf, s...)
	}
	return inferColumn(table, name, buf, cells)
}

// The single-parse inferColumn must pick the same kind, values and error as
// the two-pass reference, including where a reading is abandoned mid-column.
func TestInferColumnMatchesTwoPassReference(t *testing.T) {
	cases := [][]string{
		nil,
		{"", "", ""},
		{"1", "2.5", "", "-3e4"},
		{"", "", "7"},
		{"2020-01-02", "", "2021-03-04"},
		{"2020-01-02 10:30", "2020-01-02T10:30:00Z", "01/02/2006"},
		{"2020-01-02", "12"},      // time reading abandoned at row 2
		{"12", "2020-01-02"},      // float reading abandoned at row 2
		{"1", "2", "x", "3"},      // numeric until row 3
		{"1", "Inf", "x"},         // Inf before a non-numeric cell: categorical, no error
		{"1", "", "-Inf", "+Inf"}, // numeric with two Inf cells: the first is reported
		{"NaN", "2"},              // literal NaN reads as missing
		{"nan", "NaN", ""},        // numeric column with no present value
		{"a", "b", "a", ""},
	}
	for _, raw := range cases {
		got, gotErr := inferStrings("t", "c", raw)
		want, wantErr := twoPassInferColumn("t", "c", raw)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("inferColumn(%q) error = %v, reference error = %v", raw, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if got.Kind() != want.Kind() || got.Len() != want.Len() {
			t.Errorf("inferColumn(%q) = %v × %d, reference %v × %d", raw, got.Kind(), got.Len(), want.Kind(), want.Len())
			continue
		}
		for i := 0; i < want.Len(); i++ {
			if got.IsMissing(i) != want.IsMissing(i) || got.StringAt(i) != want.StringAt(i) {
				t.Errorf("inferColumn(%q) row %d = %q, reference %q", raw, i, got.StringAt(i), want.StringAt(i))
			}
		}
	}
}

// A byte-order mark (as Excel writes one) is no part of the first column's
// name.
func TestReadCSVStripsByteOrderMark(t *testing.T) {
	tab, err := ReadCSV("t", strings.NewReader("\ufeffschool_id,v\ns1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("school_id") == nil {
		t.Fatalf("columns %q: the byte-order mark leaked into the first name", tab.ColumnNames())
	}
}

// parseTime tries only the layouts whose fixed separators fit the cell; it
// must read every cell exactly as trying all six layouts in order does.
func TestParseTimeLayouts(t *testing.T) {
	allLayouts := func(s string) (int64, bool) {
		for _, l := range timeLayouts {
			if ts, err := time.Parse(l.layout, s); err == nil {
				return ts.Unix(), true
			}
		}
		return 0, false
	}
	for _, tc := range []struct {
		cell string
		ok   bool
	}{
		{"2020-01-02T10:30:00Z", true},      // RFC 3339
		{"2020-01-02T10:30:00+02:00", true}, // RFC 3339 with an offset
		{"2020-01-02 10:30:00", true},
		{"2020-01-02 10:30", true},
		{"2020-01-02", true},
		{"01/02/2020 10:30:00", true},
		{"01/02/2020", true},
		{"2020-01-02 10:30:00.5", true}, // fractional seconds after a seconds field
		{"2020-01-02  10:30", true},     // a run of spaces matches the layout's one
		{"2020-1-02", false},
		{"2020/01/02", false},
		{"2020-01-02T", false},
		{"2020-01-02x", false},
		{"2020-01-0", false},
		{"1/02/2020", false},
		{"01-02-2020", false},
		{"01/02/20", false},
		{"01/02/2020T10:30:00", false},
		{"2020-13-02", false},
		{"1.2e-05", false},
		{"12345", false},
		{"", false},
		{"-", false},
	} {
		got, ok := parseTime([]byte(tc.cell))
		want, wantOK := allLayouts(tc.cell)
		if ok != tc.ok || ok != wantOK || got != want {
			t.Errorf("parseTime(%q) = %d, %v; all layouts give %d, %v; want ok %v", tc.cell, got, ok, want, wantOK, tc.ok)
		}
	}
}

// idFloatsCSV is a 2,000-row table with one id column and four float columns.
func idFloatsCSV() []byte {
	var b bytes.Buffer
	b.WriteString("id,a,b,c,d\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "row-%05d,%v,%v,%v,%v\n", i, float64(i)/7, math.Sqrt(float64(i)), -float64(i)/3, float64(i%13)*1.1)
	}
	return b.Bytes()
}

// ReadCSV allocates per column, not per cell: no record or cell strings, and
// a categorical column's dictionary is one string however many entries it
// has.
func TestReadCSVAllocsArePerColumn(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	data := idFloatsCSV()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadCSV("t", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	// 10,000 cells; the reader makes about 50 allocations, some 20 of them
	// io.ReadAll growing its buffer.
	if allocs > 100 {
		t.Fatalf("ReadCSV of 2,000 rows × 5 columns allocates %v times, want ≤ 100", allocs)
	}
}

// A table read from CSV holds its own column data and dictionary strings, and
// no part of the text it was read from.
func TestReadCSVAllocsRetainNoText(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap accounting is unreliable under -race")
	}
	data := idFloatsCSV()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	tab, err := ReadCSV("t", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	held := int64(heap()) - int64(before)
	var own int64 // column data plus dictionary bytes
	for _, c := range tab.Columns() {
		switch c := c.(type) {
		case *NumericColumn:
			own += 8 * int64(len(c.Values))
		case *CategoricalColumn:
			own += 8*int64(len(c.Codes)) + 16*int64(len(c.Dict))
			for _, s := range c.Dict {
				own += int64(len(s))
			}
		}
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(data)
	if held > own*5/4 {
		t.Fatalf("the table holds %d bytes of heap for %d bytes of columns and dictionary (%d bytes of CSV)", held, own, len(data))
	}
}

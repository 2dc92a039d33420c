package dataframe

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/parallel"
)

// timeLayouts are the timestamp formats recognized by CSV type inference,
// tried in order. Date-only layouts parse to midnight UTC.
var timeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	"01/02/2006 15:04:05",
	"01/02/2006",
}

// parseTime attempts to parse s with the known layouts, returning Unix
// seconds.
func parseTime(s string) (int64, bool) {
	for _, layout := range timeLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts.Unix(), true
		}
	}
	return 0, false
}

// ReadCSV parses a table from CSV with a header row, inferring a kind for
// each column: a column is Time if every non-empty cell parses as a known
// timestamp layout, Numeric if every non-empty cell parses as a float, and
// Categorical otherwise. Empty cells become missing values.
//
// Errors locate the offending cell: malformed records report the 1-based data
// row (the first row after the header is row 1) and, when known, the column
// name — so a bad cell in a 100k-row file points straight at its row instead
// of failing opaquely.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataframe: CSV for table %q has no header", name)
	}
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading CSV header for table %q: %w", name, err)
	}
	header, err = normalizeHeader(name, header)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, rowError(name, header, len(rows)+1, err)
		}
		rows = append(rows, rec)
	}
	cols := make([]Column, 0, len(header))
	raw := make([]string, len(rows))
	for j, colName := range header {
		for i, rec := range rows {
			if j < len(rec) {
				raw[i] = strings.TrimSpace(rec[j])
			} else {
				raw[i] = ""
			}
		}
		col, err := inferColumn(name, colName, raw)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	return NewTable(name, cols...)
}

// rowError wraps a CSV record error with the 1-based data row number and —
// when the parser pinpointed a field — the offending column's name.
func rowError(table string, header []string, row int, err error) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) && pe.Column > 0 {
		// pe.Column is a 1-based byte offset within the line; map it to a
		// column name only when the parser reports a field-level error that
		// carries a usable index. encoding/csv reports byte columns, so the
		// best name hint comes from the field count of wrong-length records.
		if errors.Is(pe.Err, csv.ErrFieldCount) {
			return fmt.Errorf("dataframe: CSV for table %q: row %d: record has wrong number of fields (header has %d columns): %w",
				table, row, len(header), err)
		}
	}
	return fmt.Errorf("dataframe: CSV for table %q: row %d: %w", table, row, err)
}

// normalizeHeader makes header names usable as column identifiers: empty
// cells become "colN". Duplicate names are rejected — two columns with the
// same name would be indistinguishable to join specs and silently shadow
// each other in every by-name lookup, so the ambiguity must surface at
// ingestion, not deep inside a join.
func normalizeHeader(table string, raw []string) ([]string, error) {
	out := make([]string, len(raw))
	seen := make(map[string]int, len(raw))
	for j, name := range raw {
		name = strings.TrimSpace(name)
		if name == "" {
			name = fmt.Sprintf("col%d", j+1)
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("dataframe: CSV for table %q has duplicate column name %q (columns %d and %d)", table, name, prev+1, j+1)
		}
		seen[name] = j
		out[j] = name
	}
	return out, nil
}

// inferColumn builds a column of the most specific kind that fits raw.
// Numeric cells holding ±Inf are rejected: Inf parses as a valid float but
// would poison join keys, aggregation means, and model features, so it is
// surfaced as an ingestion error. A literal NaN cell needs no rejection —
// numeric columns represent missing values as NaN, so it simply reads back
// as missing.
//
// Each cell is parsed once: the time and float readings are kept as they are
// made, and a reading is dropped at the first cell that does not fit it.
func inferColumn(table, name string, raw []string) (Column, error) {
	allTime, allNum, any := true, true, false
	var unix []int64   // allocated at the first cell that reads as a timestamp
	var vals []float64 // allocated at the first cell that reads as a float
	infRow := -1       // first ±Inf cell; an error only if the column stays numeric
	for i, s := range raw {
		if s == "" {
			continue
		}
		any = true
		if allTime {
			var ts int64
			if ts, allTime = parseTime(s); allTime {
				if unix == nil {
					unix = make([]int64, len(raw))
					for j := range unix {
						unix[j] = MissingTime
					}
				}
				unix[i] = ts
			}
		}
		if allNum {
			v, err := strconv.ParseFloat(s, 64)
			if allNum = err == nil; allNum {
				if vals == nil {
					vals = make([]float64, len(raw))
					for j := range vals {
						vals[j] = math.NaN()
					}
				}
				vals[i] = v
				if infRow < 0 && math.IsInf(v, 0) {
					infRow = i
				}
			}
		}
		if !allTime && !allNum {
			break
		}
	}
	switch {
	case any && allTime:
		return NewTime(name, unix), nil
	case any && allNum:
		if infRow >= 0 {
			return nil, fmt.Errorf("dataframe: CSV for table %q: row %d, column %q: non-finite value %q", table, infRow+1, name, raw[infRow])
		}
		return NewNumeric(name, vals), nil
	default:
		return NewCategorical(name, raw), nil // reads raw, keeps only its strings
	}
}

// ReadCSVFile reads a table from a CSV file; the table is named after the
// file's base name without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return ReadCSV(base, f)
}

// ReadCSVDir reads every *.csv file directly under dir as a table and
// returns them sorted by file name. Files are read on the shared parallel
// pool, so at most the process-wide worker cap of them are open and being
// parsed at once; the result — and, when several files are malformed, the
// error, which is that of the first bad file in name order — does not depend
// on the worker count.
func ReadCSVDir(dir string) ([]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return parallel.Map(0, len(names), func(i int) (*Table, error) {
		t, err := ReadCSVFile(filepath.Join(dir, names[i]))
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", names[i], err)
		}
		return t, nil
	})
}

// WriteCSV writes the table as CSV with a header row. Missing values are
// written as empty cells.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.cols {
			rec[j] = c.StringAt(i)
		}
		// encoding/csv writes a record holding a single empty field as a
		// blank line, which readers skip; quote it explicitly so the row
		// survives a round trip.
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the given path as CSV. The write is
// atomic: content lands in a temporary file that is synced and renamed into
// place, so a crash mid-write never leaves a truncated CSV under path.
func (t *Table) WriteCSVFile(path string) error {
	return atomicio.WriteFile(path, t.WriteCSV)
}

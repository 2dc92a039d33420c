package dataframe

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/maphash"
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
// tried in order. Date-only layouts parse to midnight UTC. Each layout's date
// has fixed-width fields, so a cell it can parse has the date separator sep at
// index 4 ('-') or 2 ('/'), and at index 10 the byte end (0: the cell ends
// there).
var timeLayouts = []struct {
	layout   string
	sep, end byte
}{
	{time.RFC3339, '-', 'T'},
	{"2006-01-02 15:04:05", '-', ' '},
	{"2006-01-02 15:04", '-', ' '},
	{"2006-01-02", '-', 0},
	{"01/02/2006 15:04:05", '/', ' '},
	{"01/02/2006", '/', 0},
}

// parseTime parses s with the first known layout that reads it, returning
// Unix seconds. Only layouts whose fixed separators fit s are tried, so a cell
// that is no timestamp costs no failed parse (and no string).
func parseTime(s []byte) (int64, bool) {
	for _, l := range timeLayouts {
		at := 4
		if l.sep == '/' {
			at = 2
		}
		if len(s) <= at || s[at] != l.sep {
			continue
		}
		if l.end == 0 {
			if len(s) != 10 {
				continue
			}
		} else if len(s) <= 10 || s[10] != l.end {
			continue
		}
		if ts, err := time.Parse(l.layout, string(s)); err == nil {
			return ts.Unix(), true
		}
	}
	return 0, false
}

// ReadCSV parses a table from CSV with a header row, inferring a kind for
// each column: a column is Time if every non-empty cell parses as a known
// timestamp layout, Numeric if every non-empty cell parses as a float, and
// Categorical otherwise. Empty cells become missing values. The input is read
// whole into one buffer; see parseCSV.
//
// Errors locate the offending cell: malformed records report the 1-based data
// row (the first row after the header is row 1) and, when known, the column
// name — so a bad cell in a 100k-row file points straight at its row instead
// of failing opaquely.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading CSV for table %q: %w", name, err)
	}
	return parseCSV(name, buf)
}

// ReadCSVFile reads a table from a CSV file in one read into a buffer sized
// by the file's length; the table is named after the file's base name without
// extension.
func ReadCSVFile(path string) (*Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return parseCSV(base, buf)
}

// parseCSV builds a table from the CSV text in buf, which it overwrites
// (quoted cells are unescaped in place). Cells stay spans of buf until their
// column's kind is known: numbers and timestamps are parsed from the bytes,
// and the only strings built are the header and the categorical dictionaries,
// each column's entries packed into one string of its own. So the table keeps
// nothing of buf alive.
func parseCSV(name string, buf []byte) (*Table, error) {
	if uint64(len(buf)) > math.MaxUint32 {
		return nil, fmt.Errorf("dataframe: CSV for table %q is %d bytes; the reader takes at most 4 GiB", name, len(buf))
	}
	sc := newCSVScanner(buf)
	rec, err := sc.next(nil)
	if err == io.EOF {
		return nil, fmt.Errorf("dataframe: CSV for table %q has no header", name)
	}
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading CSV header for table %q: %w", name, err)
	}
	raw := make([]string, len(rec))
	for j, sp := range rec {
		raw[j] = string(sc.buf[sp.lo:sp.hi])
	}
	header, err := normalizeHeader(name, raw)
	if err != nil {
		return nil, err
	}
	// Column j's cells are cells[j*stride:][:rows]: a record ends at a newline
	// or at the end of the input, so stride bounds the data rows.
	stride := bytes.Count(sc.buf[sc.pos:], []byte{'\n'}) + 1
	cells := make([]span, len(header)*stride)
	rows := 0
	for {
		if rec, err = sc.next(rec); err == io.EOF {
			break
		}
		if err != nil {
			return nil, rowError(name, header, rows+1, err.(*csvError))
		}
		for j, sp := range rec {
			cells[j*stride+rows] = trimSpan(sc.buf, sp)
		}
		rows++
	}
	cols := make([]Column, len(header))
	for j, colName := range header {
		if cols[j], err = inferColumn(name, colName, sc.buf, cells[j*stride:][:rows]); err != nil {
			return nil, err
		}
	}
	return NewTable(name, cols...)
}

// rowError locates a malformed data record by its 1-based row, its line, and
// the column whose field broke the rule.
func rowError(table string, header []string, row int, ce *csvError) error {
	if ce.err == csv.ErrFieldCount {
		return fmt.Errorf("dataframe: CSV for table %q: row %d (line %d): record has %d fields, header has %d: %w",
			table, row, ce.line, ce.field, len(header), ce.err)
	}
	where := fmt.Sprintf("field %d", ce.field+1)
	if ce.field < len(header) {
		where = fmt.Sprintf("column %q", header[ce.field])
	}
	return fmt.Errorf("dataframe: CSV for table %q: row %d (line %d), %s: %w", table, row, ce.line, where, ce.err)
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

// inferColumn builds a column of the most specific kind that fits the cells,
// spans of buf (an empty span is a missing value). Numeric cells holding ±Inf
// are rejected: Inf parses as a valid float but would poison join keys,
// aggregation means, and model features, so it is surfaced as an ingestion
// error. A literal NaN cell needs no rejection — numeric columns represent
// missing values as NaN, so it simply reads back as missing.
//
// Each cell is parsed once, from its bytes: the time and float readings are
// kept as they are made, and a reading is dropped at the first cell that does
// not fit it.
func inferColumn(table, name string, buf []byte, cells []span) (Column, error) {
	allTime, allNum, any := true, true, false
	var unix []int64   // allocated at the first cell that reads as a timestamp
	var vals []float64 // allocated at the first cell that reads as a float
	infRow := -1       // first ±Inf cell; an error only if the column stays numeric
	for i, sp := range cells {
		if sp.lo == sp.hi {
			continue
		}
		c := buf[sp.lo:sp.hi]
		any = true
		if allTime {
			var ts int64
			if ts, allTime = parseTime(c); allTime {
				if unix == nil {
					unix = make([]int64, len(cells))
					for j := range unix {
						unix[j] = MissingTime
					}
				}
				unix[i] = ts
			}
		}
		if allNum {
			v, err := strconv.ParseFloat(string(c), 64)
			if allNum = err == nil; allNum {
				if vals == nil {
					vals = make([]float64, len(cells))
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
			sp := cells[infRow]
			return nil, fmt.Errorf("dataframe: CSV for table %q: row %d, column %q: non-finite value %q", table, infRow+1, name, buf[sp.lo:sp.hi])
		}
		return NewNumeric(name, vals), nil
	default:
		return categoricalFromCells(name, buf, cells), nil
	}
}

// categoricalFromCells builds a categorical column over the cells with its
// dictionary in first-appearance order, like NewCategorical. Distinct values
// are interned in an open-addressing table over one packed byte buffer, so
// the column costs a handful of allocations however many rows it has, and
// its entries are substrings of one string allocated for it: the column keeps
// nothing of buf alive.
func categoricalFromCells(name string, buf []byte, cells []span) *CategoricalColumn {
	codes := make([]int, len(cells))
	n := min(len(cells), presizeCap) // sized as if the first n cells were distinct
	size := 0
	for _, sp := range cells[:n] {
		size += int(sp.hi - sp.lo)
	}
	d := dictBuilder{
		seed:   maphash.MakeSeed(),
		slots:  make([]int32, tableSize(n)),
		packed: make([]byte, 0, size),
		ends:   make([]int, 0, n),
	}
	for i, sp := range cells {
		if sp.lo == sp.hi {
			codes[i] = -1
			continue
		}
		codes[i] = d.intern(buf[sp.lo:sp.hi])
	}
	packed := string(d.packed)
	dict := make([]string, len(d.ends))
	lo := 0
	for k, hi := range d.ends {
		dict[k] = packed[lo:hi]
		lo = hi
	}
	return &CategoricalColumn{name: name, Codes: codes, Dict: dict}
}

// dictBuilder interns byte strings: entry k is packed[ends[k-1]:ends[k]], and
// slots, a power-of-two table probed linearly from each value's hash, holds
// k+1 where entry k hashed to (0 marks a free slot).
type dictBuilder struct {
	seed   maphash.Seed
	slots  []int32
	packed []byte
	ends   []int
}

// intern returns v's code, adding v as the next entry if it is new.
func (d *dictBuilder) intern(v []byte) int {
	mask := uint64(len(d.slots) - 1)
	for k := maphash.Bytes(d.seed, v) & mask; ; k = (k + 1) & mask {
		code := int(d.slots[k]) - 1
		if code < 0 {
			code = len(d.ends)
			d.packed = append(d.packed, v...)
			d.ends = append(d.ends, len(d.packed))
			d.slots[k] = int32(code + 1)
			if 2*len(d.ends) > len(d.slots) {
				d.grow()
			}
			return code
		}
		if bytes.Equal(d.entry(code), v) {
			return code
		}
	}
}

func (d *dictBuilder) entry(code int) []byte {
	lo := 0
	if code > 0 {
		lo = d.ends[code-1]
	}
	return d.packed[lo:d.ends[code]]
}

// grow doubles the table, keeping it at most half full.
func (d *dictBuilder) grow() {
	d.slots = make([]int32, 2*len(d.slots))
	mask := uint64(len(d.slots) - 1)
	for code := range d.ends {
		k := maphash.Bytes(d.seed, d.entry(code)) & mask
		for d.slots[k] != 0 {
			k = (k + 1) & mask
		}
		d.slots[k] = int32(code + 1)
	}
}

// tableSize is the first power of two at least twice n.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return size
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

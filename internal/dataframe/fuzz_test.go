package dataframe

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV reader never panics and that any table it
// accepts survives a write/read round trip with stable shape and kinds.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("date,v\n2020-01-02,3.5\n,\n")
	f.Add("only_header\n")
	f.Add("a\n\"quoted, cell\"\n")
	f.Add("x,y,z\n1,2\n")   // ragged
	f.Add("a,a\n1,2\n")     // duplicate header
	f.Add("\x00,\xff\n,\n") // binary garbage
	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ReadCSV("fuzz", strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted table failed to serialize: %v", err)
		}
		back, err := ReadCSV("fuzz", &buf)
		if err != nil {
			t.Fatalf("own output rejected on re-read: %v", err)
		}
		if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				tab.NumRows(), tab.NumCols(), back.NumRows(), back.NumCols())
		}
		// Missing cells must not appear or disappear.
		if back.MissingCells() != tab.MissingCells() {
			t.Fatalf("round trip changed missing-cell count: %d -> %d",
				tab.MissingCells(), back.MissingCells())
		}
	})
}

// FuzzBinarize asserts one-hot encoding never panics and always yields
// exactly one active indicator per present value.
func FuzzBinarize(f *testing.F) {
	f.Add("a|b|a||c")
	f.Add("|||")
	f.Add("x")
	f.Fuzz(func(t *testing.T, packed string) {
		vals := strings.Split(packed, "|")
		col := NewCategorical("k", vals)
		indicators := Binarize(col)
		if len(indicators) > MaxOneHotCardinality {
			t.Fatalf("cardinality cap violated: %d indicators", len(indicators))
		}
		for i, v := range vals {
			sum := 0.0
			for _, ind := range indicators {
				sum += ind.Values[i]
			}
			if v == "" && sum != 0 {
				t.Fatalf("missing row %d has active indicators", i)
			}
			if v != "" && sum != 1 {
				t.Fatalf("row %d indicator sum = %v, want 1", i, sum)
			}
		}
	})
}

// scanAll splits input with the reader's scanner: the records before the
// first error, and that error.
func scanAll(input []byte) ([][]string, error) {
	sc := newCSVScanner(input)
	var recs [][]string
	var rec []span
	for {
		var err error
		if rec, err = sc.next(rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return recs, err
		}
		fields := make([]string, len(rec))
		for j, sp := range rec {
			fields[j] = string(sc.buf[sp.lo:sp.hi])
		}
		recs = append(recs, fields)
	}
}

// encodingCSVAll splits input with encoding/csv under TrimLeadingSpace, the
// reader the scanner replaced: the records before the first error, and that
// error.
func encodingCSVAll(input string) ([][]string, error) {
	cr := csv.NewReader(strings.NewReader(input))
	cr.TrimLeadingSpace = true
	var recs [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		} else if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// FuzzReadCSVMatchesEncodingCSV holds the scanner to encoding/csv: on any
// input (after the byte-order mark the scanner strips), both accept or both
// reject; they return the same records; and a rejection comes at the same
// record with the same encoding/csv error (the position within the line may
// differ).
func FuzzReadCSVMatchesEncodingCSV(f *testing.F) {
	for _, s := range []string{
		"a,b\r\n1,2\r\n3,4\r\n",                 // CRLF line ends
		"a,b\n1,2\r",                            // a lone CR ending the input
		"a\n\n1\n\r\n\n2\n",                     // blank lines
		"a\n  \n1\n \t\r\n",                     // white-space-only lines
		"a,b\n \t1, x \n",                       // leading and trailing space
		"a,b\n\"x,y\",\"1\n2\"\n\"q\"\"q\",3\n", // quoted commas, newlines and ""
		"a,b\n\"x\r\ny\",1\r\n",                 // CRLF inside a quoted field
		"a,b\n1,x\"y\n",                         // bare quote
		"a,b\n\"open,1\n2,3\n",                  // unterminated quote
		"a,b\n\"x\" ,1\n",                       // text after a closing quote
		"a,b\n1\n",                              // ragged row
		"a,b\n1,2,3\n",                          // too many fields
		"a\r\r\nb\r\n",                          // CR before the line's CRLF
		"\ufeffa,b\n1,2\n",                      // byte-order mark
		" a, \"b\"\n1,\u00852\n",                // Unicode white space
		"a,\n,\n",                               // empty trailing fields
		"\"\"\n\"\"",                            // empty quoted fields, no final newline
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := encodingCSVAll(strings.TrimPrefix(input, "\ufeff"))
		got, gotErr := scanAll([]byte(input))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scanner error %v, encoding/csv error %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("scanner read %d records %q, encoding/csv %d %q", len(got), got, len(want), want)
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("record %d: scanner %q, encoding/csv %q", i, got[i], want[i])
			}
		}
		var pe *csv.ParseError
		if wantErr != nil && (!errors.As(wantErr, &pe) || !errors.Is(gotErr, pe.Err)) {
			t.Fatalf("record %d: scanner error %v, encoding/csv error %v", len(want), gotErr, wantErr)
		}
	})
}

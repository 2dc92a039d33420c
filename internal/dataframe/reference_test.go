package dataframe_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/synth"
)

// This file freezes the CSV reader the single-buffer one replaced:
// encoding/csv records held as [][]string, every cell trimmed to a string, a
// two-pass inference that tries every timestamp layout on every cell, and
// NewCategorical over the raw strings. Slow, and obviously what it says; the
// tables it reads are the ones the live reader must match digest for digest.

var refTimeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	"01/02/2006 15:04:05",
	"01/02/2006",
}

func refParseTime(s string) (int64, bool) {
	for _, layout := range refTimeLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts.Unix(), true
		}
	}
	return 0, false
}

// refReadCSV is the frozen ReadCSV, without its error locations.
func refReadCSV(name string, r io.Reader) (*dataframe.Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no header")
	}
	var cols []dataframe.Column
	for j, colName := range recs[0] {
		raw := make([]string, len(recs)-1)
		for i, rec := range recs[1:] {
			raw[i] = strings.TrimSpace(rec[j])
		}
		col, err := refInferColumn(strings.TrimSpace(colName), raw)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	return dataframe.NewTable(name, cols...)
}

func refInferColumn(name string, raw []string) (dataframe.Column, error) {
	allTime, allNum, any := true, true, false
	for _, s := range raw {
		if s == "" {
			continue
		}
		any = true
		if _, ok := refParseTime(s); !ok {
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
			unix[i] = dataframe.MissingTime
			if s != "" {
				unix[i], _ = refParseTime(s)
			}
		}
		return dataframe.NewTime(name, unix), nil
	case any && allNum:
		vals := make([]float64, len(raw))
		for i, s := range raw {
			vals[i] = math.NaN()
			if s != "" {
				vals[i], _ = strconv.ParseFloat(s, 64)
			}
			if math.IsInf(vals[i], 0) {
				return nil, fmt.Errorf("row %d, column %q: non-finite value %q", i+1, name, s)
			}
		}
		return dataframe.NewNumeric(name, vals), nil
	default:
		return dataframe.NewCategorical(name, raw), nil
	}
}

// Every table of two corpora, written as CSV, reads back through ReadCSV with
// the digest the frozen encoding/csv reader gives it.
func TestReadCSVMatchesReferenceOnCorpora(t *testing.T) {
	corpora := map[string]*synth.Corpus{
		"school-l": synth.SchoolL(synth.Config{Seed: 1, Scale: 0.1}),
		"poverty":  synth.Poverty(synth.Config{Seed: 1, Scale: 0.2}),
	}
	for name, c := range corpora {
		for _, tab := range append([]*dataframe.Table{c.Base}, c.Repo...) {
			var buf bytes.Buffer
			if err := tab.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			want, err := refReadCSV(tab.Name(), bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: reference reader: %v", name, tab.Name(), err)
			}
			got, err := dataframe.ReadCSV(tab.Name(), &buf)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tab.Name(), err)
			}
			if got.Digest() != want.Digest() {
				t.Fatalf("%s/%s: digest %x, reference reader %x", name, tab.Name(), got.Digest(), want.Digest())
			}
		}
	}
}

package dataframe

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// span is a cell's text, buf[lo:hi] of the buffer its table is parsed from.
type span struct{ lo, hi uint32 }

// trimSpan narrows sp to its text without surrounding white space, by
// strings.TrimSpace's rule.
func trimSpan(buf []byte, sp span) span {
	c := buf[sp.lo:sp.hi]
	t := bytes.TrimSpace(c) // a subslice of c: cap(c)-cap(t) is its offset
	lo := sp.lo + uint32(cap(c)-cap(t))
	if len(t) == 0 {
		lo = sp.lo
	}
	return span{lo, lo + uint32(len(t))}
}

// csvError is a record the scanner rejects, with encoding/csv's error for the
// rule it breaks.
type csvError struct {
	line  int   // 1-based line where the scanner stopped
	field int   // 0-based index of the offending field; the record's field count for ErrFieldCount
	err   error // csv.ErrBareQuote, csv.ErrQuote or csv.ErrFieldCount
}

func (e *csvError) Error() string {
	if e.err == csv.ErrFieldCount {
		return fmt.Sprintf("line %d: record has %d fields: %v", e.line, e.field, e.err)
	}
	return fmt.Sprintf("line %d, field %d: %v", e.line, e.field+1, e.err)
}

func (e *csvError) Unwrap() error { return e.err }

// csvScanner splits a buffer into records by encoding/csv's rules with
// TrimLeadingSpace set: "\r\n" reads as "\n" and a "\r" ending the input is
// dropped; blank lines are skipped; leading white space of a field is
// dropped; a quoted field may hold `""`, commas and newlines; a quote in an
// unquoted field, a quoted field left open or followed by anything but a
// comma or a line end, and a record whose field count differs from the
// first record's are errors. A field is a span of buf: a quoted one is
// unescaped in place, which only ever shortens it.
type csvScanner struct {
	buf   []byte
	pos   int // where the next record starts
	line  int // 1-based line of buf[pos]
	width int // the first record's field count; 0 before it is read
}

func newCSVScanner(buf []byte) *csvScanner {
	buf = bytes.TrimPrefix(buf, []byte("\ufeff")) // a byte-order mark is no part of the first name
	if n := len(buf); n > 0 && buf[n-1] == '\r' {
		buf = buf[:n-1]
	}
	return &csvScanner{buf: buf, line: 1}
}

// next returns the next record's fields in dst[:0], or io.EOF when only blank
// lines are left. Any other error is a *csvError.
func (s *csvScanner) next(dst []span) ([]span, error) {
	b := s.buf
	dst = dst[:0]
	for s.pos < len(b) && (b[s.pos] == '\n' || b[s.pos] == '\r' && s.pos+1 < len(b) && b[s.pos+1] == '\n') {
		if b[s.pos] == '\r' {
			s.pos++
		}
		s.pos++
		s.line++
	}
	if s.pos == len(b) {
		return dst, io.EOF
	}
	start := s.line
	for {
		i := skipSpace(b, s.pos)
		var sp span
		if i < len(b) && b[i] == '"' {
			lo, w, r := i+1, i+1, i+1 // value start, write and read positions
			for {
				q := bytes.IndexByte(b[r:], '"')
				if q < 0 {
					s.line += bytes.Count(b[r:], []byte{'\n'})
					return dst, &csvError{s.line, len(dst), csv.ErrQuote}
				}
				w = s.unescape(w, r, r+q)
				if r += q + 1; r < len(b) && b[r] == '"' {
					b[w] = '"'
					w, r = w+1, r+1
					continue
				}
				break
			}
			if r+1 < len(b) && b[r] == '\r' && b[r+1] == '\n' {
				r++
			}
			if r < len(b) && b[r] != ',' && b[r] != '\n' {
				return dst, &csvError{s.line, len(dst), csv.ErrQuote}
			}
			sp, s.pos = span{uint32(lo), uint32(w)}, r
		} else {
			j := i
			for j < len(b) && !unquotedStop[b[j]] {
				j++
			}
			if j < len(b) && b[j] == '"' {
				return dst, &csvError{s.line, len(dst), csv.ErrBareQuote}
			}
			hi := j
			if j < len(b) && b[j] == '\n' && hi > i && b[hi-1] == '\r' {
				hi--
			}
			sp, s.pos = span{uint32(i), uint32(hi)}, j
		}
		dst = append(dst, sp)
		if s.pos == len(b) {
			break
		}
		s.pos++
		if b[s.pos-1] == '\n' {
			s.line++
			break
		}
	}
	if s.width == 0 {
		s.width = len(dst) // a record has at least one field
	} else if len(dst) != s.width {
		return dst, &csvError{start, len(dst), csv.ErrFieldCount}
	}
	return dst, nil
}

// unquotedStop marks the bytes an unquoted field's scan stops at: its two
// terminators, and the quote it may not hold.
var unquotedStop = [256]bool{',': true, '\n': true, '"': true}

// unescape moves the quoted text b[from:to] down to b[w:], reading each
// "\r\n" as "\n", and returns the new write position.
func (s *csvScanner) unescape(w, from, to int) int {
	b := s.buf
	for k := from; k < to; k++ {
		switch {
		case b[k] == '\n':
			s.line++
		case b[k] == '\r' && k+1 < to && b[k+1] == '\n':
			continue
		}
		b[w] = b[k]
		w++
	}
	return w
}

// skipSpace returns the first index from i that does not start a white-space
// rune, stopping at a newline: encoding/csv trims leading space line by line.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if c == '\n' || !(c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
				return i
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += n
	}
	return i
}

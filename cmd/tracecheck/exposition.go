package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// validateExposition checks a Prometheus text-format (version 0.0.4) scrape
// line by line: comment lines must be well-formed HELP/TYPE declarations,
// sample lines must be `name{labels} value [timestamp]` with a legal metric
// name, parseable labels, and a float value. Every arda_ sample must belong
// to a family declared counter, gauge or histogram: an untyped or undeclared
// one is an error. It returns the set of sample metric names seen (including
// _bucket/_sum/_count family members).
func validateExposition(r io.Reader) (map[string]bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	names := map[string]bool{}
	typed := map[string]string{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q (want # HELP/TYPE name ...)", line, text)
			}
			if !validMetricName(fields[2]) {
				return nil, fmt.Errorf("line %d: illegal metric name %q", line, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE line needs exactly one type", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				if _, dup := typed[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: %s declared twice", line, fields[2])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, err := splitSample(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("line %d: illegal metric name %q", line, name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("line %d: want `name{labels} value [timestamp]`, got %q", line, text)
		}
		if v := fields[0]; v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("line %d: sample value %q is not a float", line, v)
			}
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: timestamp %q is not an integer", line, fields[1])
			}
		}
		if strings.HasPrefix(name, "arda_") {
			switch typed[familyOf(name, typed)] {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: %s is not declared counter, gauge or histogram", line, name)
			}
		}
		names[name] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("exposition has no samples")
	}
	// Histogram families must be complete: _bucket implies _sum and _count.
	for fam, typ := range typed {
		if typ != "histogram" {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !names[fam+suffix] {
				return nil, fmt.Errorf("histogram %s missing %s samples", fam, suffix)
			}
		}
	}
	return names, nil
}

// familyOf returns the declared family a sample belongs to: the sample name
// itself, or the histogram it is a _bucket, _sum or _count member of.
func familyOf(name string, typed map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if fam, ok := strings.CutSuffix(name, suffix); ok && typed[fam] == "histogram" {
			return fam
		}
	}
	return name
}

// splitSample separates a sample line into its metric name and the
// remainder after the optional {labels} block, validating label syntax.
func splitSample(text string) (name, rest string, err error) {
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("sample %q has no value", text)
	}
	name = text[:i]
	if text[i] == ' ' {
		return name, text[i+1:], nil
	}
	end := strings.IndexByte(text[i:], '}')
	if end < 0 {
		return "", "", fmt.Errorf("unterminated label block in %q", text)
	}
	labels := text[i+1 : i+end]
	if err := validateLabels(labels); err != nil {
		return "", "", fmt.Errorf("labels {%s}: %v", labels, err)
	}
	return name, strings.TrimSpace(text[i+end+1:]), nil
}

// validateLabels checks a comma-separated `key="value"` list. Values may
// contain escaped quotes; keys follow the label-name charset.
func validateLabels(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("missing key= in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validMetricName(key) || strings.Contains(key, ":") {
			return fmt.Errorf("illegal label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		for {
			j := strings.IndexByte(s, '"')
			if j < 0 {
				return fmt.Errorf("unterminated value for label %s", key)
			}
			if j > 0 && s[j-1] == '\\' {
				s = s[j+1:]
				continue
			}
			s = s[j+1:]
			break
		}
		s = strings.TrimSpace(s)
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("garbage after label %s", key)
			}
			s = strings.TrimSpace(s[1:])
		}
	}
	return nil
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Package metrics is the live telemetry surface of a run: a hand-rolled
// (stdlib-only) Prometheus text exposition of a trace's counters, gauges,
// and histograms, and an HTTP server wiring it — plus a live stage-tree view
// and an NDJSON event stream — behind `arda -metrics-addr`. It is strictly
// read-only over internal/obs: scraping never perturbs the pipeline.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/arda-ml/arda/internal/obs"
)

// namePrefix namespaces every exposed metric, per Prometheus convention.
const namePrefix = "arda_"

// sanitizeMetricName maps an obs metric name (dotted, e.g.
// "join.rows_matched") onto the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* and prepends the arda_ prefix.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(namePrefix) + len(name))
	b.WriteString(namePrefix)
	// The prefix guarantees the name starts with a letter, so digits are
	// legal everywhere in the remainder.
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the counter, gauge and histogram snapshots in the
// Prometheus text exposition format (version 0.0.4). Counters and gauges are
// exposed as typed samples; histograms (observed in nanoseconds) are
// exposed as cumulative-bucket histograms in seconds under a _seconds
// suffix, per Prometheus base-unit convention. Each kind is sorted by name
// so consecutive scrapes diff cleanly.
func WritePrometheus(w io.Writer, counters, gauges map[string]int64, hists map[string]obs.HistogramStat) error {
	if err := writeScalars(w, "counter", counters); err != nil {
		return err
	}
	if err := writeScalars(w, "gauge", gauges); err != nil {
		return err
	}
	hnames := make([]string, 0, len(hists))
	for name := range hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		if err := writeHistogram(w, sanitizeMetricName(name)+"_seconds", hists[name]); err != nil {
			return err
		}
	}
	return nil
}

// writeScalars renders one kind of scalar metric, sorted by name.
func writeScalars(w io.Writer, kind string, metrics map[string]int64) error {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := sanitizeMetricName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", pn, kind, pn, metrics[name]); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one nanosecond histogram as a Prometheus
// seconds-based histogram family: cumulative _bucket{le=...} samples over
// the non-empty power-of-two bounds, a +Inf bucket, _sum, and _count.
func writeHistogram(w io.Writer, pn string, h obs.HistogramStat) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		// Empty leading/inner buckets still matter for cumulative counts but
		// emitting all 64 bounds per histogram would bloat the scrape; skip
		// bounds that add nothing new.
		if c == 0 {
			continue
		}
		le := strconv.FormatFloat(float64(obs.BucketUpper(i))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		pn, h.Count,
		pn, strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64),
		pn, h.Count)
	return err
}

package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanStat is one node of the immutable span-tree snapshot. Children read in
// the order things happened: names in the order each first appeared under
// the parent, ordinals ascending within a name — never completion time, so
// two runs of the same seeded pipeline produce structurally identical
// snapshots for any worker count (sequential stages start in program order;
// a parallel family such as select.rep[i] shares one name).
type SpanStat struct {
	// Name is the stage name ("join", "select", …).
	Name string `json:"name"`
	// Ord is the caller-assigned ordinal among same-named siblings.
	Ord int `json:"ord"`
	// Label is the optional human-readable label (e.g. a table name).
	Label string `json:"label,omitempty"`
	// Dur is the span's monotonic duration.
	Dur time.Duration `json:"dur_ns"`
	// Attrs holds the span's integer attributes.
	Attrs map[string]int64 `json:"attrs,omitempty"`
	// Children are the nested spans.
	Children []*SpanStat `json:"children,omitempty"`
}

// RunStats is the machine-readable outcome of a traced run: the span tree
// plus final counter/gauge values. It is a plain value — safe to retain,
// serialize, or render after the trace is finished.
type RunStats struct {
	// Name is the root span's name.
	Name string `json:"name"`
	// Elapsed is the root span's duration.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Root is the span tree.
	Root *SpanStat `json:"root"`
	// Counters holds the final counter and gauge values by name.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histograms holds the latency/size distributions by name (stage and
	// per-item span durations, per-tree fit times, subset-score latencies).
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// snapshot freezes the trace's span tree and metrics.
func (t *Trace) snapshot() *RunStats {
	root := t.root.stat()
	return &RunStats{
		Name:       t.root.name,
		Elapsed:    root.Dur,
		Root:       root,
		Counters:   t.Metrics(),
		Histograms: t.Histograms(),
	}
}

// stat converts the span subtree into its snapshot form.
func (s *Span) stat() *SpanStat {
	s.mu.Lock()
	st := &SpanStat{Name: s.name, Ord: s.ord, Label: s.label, Dur: s.dur}
	if !s.ended {
		st.Dur = time.Since(s.start)
	}
	if len(s.attrs) > 0 {
		st.Attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			st.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		st.Children = append(st.Children, c.stat())
	}
	first := make(map[string]int, len(children)) // name → creation index of its first span
	for i, c := range st.Children {
		if _, ok := first[c.Name]; !ok {
			first[c.Name] = i
		}
	}
	sort.SliceStable(st.Children, func(i, j int) bool {
		a, b := st.Children[i], st.Children[j]
		if a.Name != b.Name {
			return first[a.Name] < first[b.Name]
		}
		return a.Ord < b.Ord
	})
	return st
}

// StageTotals sums span durations by span name across the whole tree — the
// per-stage cost breakdown of the run. Nested stages accumulate under their
// own name: a per-candidate "join.cand" span counts toward "join.cand", not
// toward its parent "join" (whose duration already covers it).
func (r *RunStats) StageTotals() map[string]time.Duration {
	totals := make(map[string]time.Duration)
	var walk func(*SpanStat)
	walk = func(s *SpanStat) {
		totals[s.Name] += s.Dur
		for _, c := range s.Children {
			walk(c)
		}
	}
	if r.Root != nil {
		walk(r.Root)
	}
	return totals
}

// SpanCounts counts spans by name across the whole tree.
func (r *RunStats) SpanCounts() map[string]int {
	counts := make(map[string]int)
	var walk func(*SpanStat)
	walk = func(s *SpanStat) {
		counts[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	if r.Root != nil {
		walk(r.Root)
	}
	return counts
}

// Render draws the stage-cost tree and the counters, aligned for terminal
// output:
//
//	augment                          812.3ms
//	├─ prefilter                       0.1ms
//	├─ join                           12.0ms
//	│  ├─ join.cand[0]                 0.4ms  rows_matched=192
//	…
//	counters:
//	  join.rows_matched              1920
func (r *RunStats) Render() string {
	var b strings.Builder
	if r.Root != nil {
		renderSpan(&b, r.Root, "", "")
	}
	if len(r.Counters) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(r.Counters))
		for name := range r.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-34s %d\n", name, r.Counters[name])
		}
	}
	if len(r.Histograms) > 0 {
		b.WriteString("histograms:                          count      p50      p95      p99\n")
		names := make([]string, 0, len(r.Histograms))
		for name := range r.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := r.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-34s %5d %7.1fms %7.1fms %7.1fms\n",
				name, h.Count,
				float64(h.Quantile(0.50))/1e6,
				float64(h.Quantile(0.95))/1e6,
				float64(h.Quantile(0.99))/1e6)
		}
	}
	return b.String()
}

// renderSpan draws one node and recurses with box-drawing guides.
func renderSpan(b *strings.Builder, s *SpanStat, prefix, childPrefix string) {
	name := s.Name
	if s.Ord > 0 {
		name = fmt.Sprintf("%s[%d]", s.Name, s.Ord)
	}
	if s.Label != "" {
		name += " (" + s.Label + ")"
	}
	head := prefix + name
	fmt.Fprintf(b, "%-40s %9.1fms", head, float64(s.Dur.Microseconds())/1000)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "  %s=%d", k, s.Attrs[k])
		}
	}
	b.WriteByte('\n')
	for i, c := range s.Children {
		guide, cont := "├─ ", "│  "
		if i == len(s.Children)-1 {
			guide, cont = "└─ ", "   "
		}
		renderSpan(b, c, childPrefix+guide, childPrefix+cont)
	}
}

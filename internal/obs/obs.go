// Package obs is the pipeline observability layer: hierarchical spans with
// monotonic durations, typed counters and gauges, and pluggable sinks
// (no-op, in-memory collector, NDJSON writer). The ARDA pipeline threads a
// *Trace through every stage — prefilter, coreset, screen, join execution,
// imputation, feature selection, materialization, final evaluation — so a
// run can be broken down the way the paper's §6 evaluation reports costs.
//
// Two contracts shape the design:
//
//  1. Zero cost when off: every method is nil-receiver safe, so a nil *Trace
//     (the default) makes instrumentation a no-op without branching at call
//     sites and without allocating — guarded by AllocsPerRun tests.
//  2. Determinism: tracing never draws randomness and never feeds back into
//     the pipeline, so results are bit-identical with tracing on or off; and
//     spans carry caller-assigned ordinals with children normalized in
//     (ordinal, name) order at snapshot time, so the span tree's structure is
//     identical for any worker count even though spans from parallel work
//     items end in scheduling order.
package obs

import (
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one run's observability root: a span tree plus a counter/gauge
// registry, streaming events to the configured sinks. Create one per
// pipeline run with New and finish it exactly once with Finish. A nil
// *Trace disables all instrumentation at zero cost.
type Trace struct {
	root  *Span
	start time.Time
	sinks []Sink
	// emitMu makes each event's fan-out atomic, so spans ending on
	// concurrent goroutines reach every sink in one order: a live stream and
	// the trace file it is published as hold the same sequence.
	emitMu sync.Mutex

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	done     bool
}

// New starts a trace whose root span is named name. Events stream to the
// given sinks as spans end; no sinks means the trace only accumulates the
// in-memory tree returned by Finish.
func New(name string, sinks ...Sink) *Trace {
	t := &Trace{
		start:    time.Now(),
		sinks:    sinks,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	t.root = &Span{trace: t, name: name, start: t.start}
	return t
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Counter returns the named cumulative counter, registering it on first use.
// A nil trace returns a nil counter, whose methods are no-ops.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters[name]
	if c == nil {
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named last-value gauge, registering it on first use. A
// nil trace returns a nil gauge, whose methods are no-ops.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency/size distribution, registering it on
// first use. A nil trace returns a nil histogram, whose methods are no-ops.
// Every ended span also observes its duration into the histogram named
// after the span, so per-stage and per-item distributions exist without
// explicit calls; Histogram is for distributions below span granularity
// (per-tree fit times, per-subset score latencies).
func (t *Trace) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		t.hists[name] = h
	}
	return h
}

// Histograms returns a snapshot of every registered histogram by name.
func (t *Trace) Histograms() map[string]HistogramStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	hists := make([]*Histogram, 0, len(t.hists))
	for _, h := range t.hists {
		hists = append(hists, h)
	}
	t.mu.Unlock()
	out := make(map[string]HistogramStat, len(hists))
	for _, h := range hists {
		out[h.name] = h.Snapshot()
	}
	return out
}

// Snapshot freezes the trace's current state — span tree (open spans report
// elapsed-so-far), metrics, and histograms — without ending anything. This
// is the live view behind /statusz; Finish returns the terminal snapshot.
// A nil trace returns nil.
func (t *Trace) Snapshot() *RunStats {
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// Finish ends the root span (and any still-open descendants), emits the
// counter/gauge values and a final "run" event to the sinks, flushes them,
// and returns the run snapshot. Finish is idempotent; calls after the first
// return a fresh snapshot of the same finished tree. A nil trace returns
// nil.
func (t *Trace) Finish() *RunStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	first := !t.done
	t.done = true
	t.mu.Unlock()
	if first {
		t.root.endAt(time.Now())
		for _, ev := range t.metricEvents() {
			t.emit(ev)
		}
		t.emit(Event{
			Type:    EventRun,
			Name:    t.root.name,
			DurUS:   t.root.Duration().Microseconds(),
			StartUS: 0,
		})
		for _, s := range t.sinks {
			s.Flush()
		}
	}
	return t.snapshot()
}

// metricEvents renders every counter and gauge as an event, in sorted name
// order so sink output is stable.
func (t *Trace) metricEvents() []Event {
	vals := t.Metrics()
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	evs := make([]Event, 0, len(names))
	for _, name := range names {
		evs = append(evs, Event{Type: EventCounter, Name: name, Value: vals[name]})
	}
	hists := t.Histograms()
	hnames := make([]string, 0, len(hists))
	for name := range hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		st := hists[name]
		evs = append(evs, Event{
			Type:  EventHist,
			Name:  name,
			Value: st.Count,
			Attrs: map[string]int64{
				"sum_ns": st.Sum,
				"p50_ns": st.Quantile(0.50),
				"p95_ns": st.Quantile(0.95),
				"p99_ns": st.Quantile(0.99),
			},
		})
	}
	return evs
}

// Metrics returns the current counter and gauge values by name.
func (t *Trace) Metrics() map[string]int64 {
	counters, gauges := t.Scalars()
	maps.Copy(counters, gauges)
	return counters
}

// Scalars returns the current counter and gauge values by name, apart.
func (t *Trace) Scalars() (counters, gauges map[string]int64) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	counters = make(map[string]int64, len(t.counters)+len(t.gauges)) // room for Metrics' merge
	for name, c := range t.counters {
		counters[name] = c.Value()
	}
	gauges = make(map[string]int64, len(t.gauges))
	for name, g := range t.gauges {
		gauges[name] = g.Value()
	}
	return counters, gauges
}

// emit streams one event to every sink.
func (t *Trace) emit(ev Event) {
	t.emitMu.Lock()
	defer t.emitMu.Unlock()
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}

// Span is one timed region of the pipeline. Spans nest: Child starts a
// sub-span, End stops the clock and emits a span event. Creating children
// from concurrent goroutines is safe; the caller-assigned ordinal (the work
// item's deterministic index — batch number, candidate ordinal, repetition)
// fixes the tree structure independent of scheduling. All methods are
// nil-receiver safe no-ops.
type Span struct {
	trace  *Trace
	parent *Span
	name   string
	ord    int
	start  time.Time

	mu       sync.Mutex
	label    string
	dur      time.Duration
	ended    bool
	children []*Span
	attrs    map[string]int64
}

// Trace returns the trace this span records into (nil for a nil span). It
// lets code that was handed only a span — e.g. a selector via SpanAttacher —
// bump trace-level counters without threading the Trace separately; the
// whole chain span.Trace().Counter(...).Add(...) is nil-safe.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Child starts a sub-span. ord is the caller's deterministic ordinal among
// same-named siblings (batch index, candidate ordinal, repetition number);
// snapshots order siblings by (ord, name), so the tree structure never
// depends on goroutine scheduling.
func (s *Span) Child(name string, ord int) *Span {
	if s == nil {
		return nil
	}
	c := &Span{trace: s.trace, parent: s, name: name, ord: ord, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Begin restarts the span's clock. Siblings appear in a snapshot in the order
// their names were first created, so a parent that fans out differently-named
// children creates them in program order before the fan-out, and each work
// item calls Begin when it actually starts: the tree stays independent of
// scheduling and a child's duration excludes its wait for a worker.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.start = time.Now()
	s.mu.Unlock()
}

// End stops the span's clock (monotonic duration) and emits a span event to
// the trace's sinks. End is idempotent; only the first call sets the
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

// endAt ends the span — and any still-open children, so a Finish on a
// partially-instrumented run never reports zero durations — then emits it.
func (s *Span) endAt(now time.Time) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = now.Sub(s.start)
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		c.endAt(now)
	}
	if s.trace != nil {
		// Every ended span feeds the histogram named after it, so stage and
		// per-item latency distributions (join.cand, select.rep, …) fall out
		// of the existing span structure. The observation *count* per name is
		// scheduling-independent even though the durations are not.
		s.trace.Histogram(s.name).Observe(int64(s.dur))
		s.trace.emit(s.event())
	}
}

// event renders the span as a sink event.
func (s *Span) event() Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var attrs map[string]int64
	if len(s.attrs) > 0 {
		attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
	}
	return Event{
		Type:    EventSpan,
		Name:    s.name,
		Path:    s.path(),
		Ord:     s.ord,
		Label:   s.label,
		StartUS: s.start.Sub(s.trace.start).Microseconds(),
		DurUS:   s.dur.Microseconds(),
		Attrs:   attrs,
	}
}

// path renders the slash-separated location of the span from the root;
// ordinals > 0 are rendered as name[ord] so sibling paths stay distinct.
func (s *Span) path() string {
	var segs []string
	for sp := s; sp != nil; sp = sp.parent {
		seg := sp.name
		if sp.ord > 0 {
			seg = seg + "[" + strconv.Itoa(sp.ord) + "]"
		}
		segs = append(segs, seg)
	}
	var b []byte
	for i := len(segs) - 1; i >= 0; i-- {
		if len(b) > 0 {
			b = append(b, '/')
		}
		b = append(b, segs[i]...)
	}
	return string(b)
}

// SetLabel attaches a human-readable label (e.g. the joined table's name).
func (s *Span) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.mu.Unlock()
}

// SetInt attaches one integer attribute (rows matched, features injected…)
// to the span.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Duration returns the span's monotonic duration (elapsed-so-far while the
// span is still open; 0 for a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// SpanAttacher is implemented by pipeline components that emit child spans
// under the stage span that invokes them — e.g. the RIFS selector's
// per-repetition spans. The pipeline attaches the current stage span before
// calling the component and detaches (attaches nil) afterwards; components
// must treat a nil span as tracing-off.
type SpanAttacher interface {
	AttachSpan(*Span)
}

// Counter is a cumulative metric. Add is atomic, allocation-free, and safe
// from any goroutine; totals are order-independent sums, so counter values
// are deterministic for any worker count.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter; a nil counter is a no-op.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current total (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (candidates after dedupe, coreset rows…).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value; a nil gauge is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

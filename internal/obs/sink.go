package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event types.
const (
	// EventSpan records one ended span.
	EventSpan = "span"
	// EventCounter records one final counter or gauge value.
	EventCounter = "counter"
	// EventHist records one final histogram: Value is the observation
	// count, Attrs carries sum_ns and the p50/p95/p99 estimates.
	EventHist = "hist"
	// EventRun is the terminal event: the whole run's duration. Exactly one
	// per finished trace, always last.
	EventRun = "run"
)

// Event is one observability record — the unit sinks consume and the NDJSON
// line schema (validated by cmd/tracecheck):
//
//	{"type":"span","name":"join.cand","path":"augment/join/join.cand[2]","ord":2,
//	 "start_us":1042,"dur_us":3187,"attrs":{"rows_matched":192}}
//	{"type":"counter","name":"join.rows_matched","value":1920}
//	{"type":"run","name":"augment","dur_us":812345}
type Event struct {
	Type    string           `json:"type"`
	Name    string           `json:"name"`
	Path    string           `json:"path,omitempty"`
	Ord     int              `json:"ord,omitempty"`
	Label   string           `json:"label,omitempty"`
	StartUS int64            `json:"start_us,omitempty"`
	DurUS   int64            `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
	Value   int64            `json:"value,omitempty"`
}

// Sink consumes a trace's event stream. Emit may be called from any
// goroutine (spans end where their work runs); Flush is called once, from
// Finish, after the last Emit.
type Sink interface {
	Emit(Event)
	Flush() error
}

// NopSink discards every event — the explicit do-nothing sink for callers
// that want the in-memory span tree (Trace.Finish) without any streaming.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(Event) {}

// Flush implements Sink.
func (NopSink) Flush() error { return nil }

// Collector buffers every event in memory, for tests and for callers that
// post-process a run's events (e.g. the stage-timing bench report).
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Flush implements Sink.
func (c *Collector) Flush() error { return nil }

// Events returns a copy of everything emitted so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// NDJSONSink streams events as newline-delimited JSON, one Event per line.
// Lines are written as spans end, so a crashed run still leaves a usable
// prefix; line order within a parallel stage follows completion order (the
// span tree structure is recoverable from the path fields regardless).
type NDJSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	w   io.Writer
	err error
}

// NewNDJSONSink returns a sink writing NDJSON to w. The caller owns w and
// closes it after Trace.Finish.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w), w: w}
}

// Emit implements Sink; the first write error sticks and is reported by
// Flush.
func (s *NDJSONSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Flush implements Sink: it reports the first write error, and syncs when
// the writer supports it.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if f, ok := s.w.(interface{ Sync() error }); ok {
		return f.Sync()
	}
	return nil
}

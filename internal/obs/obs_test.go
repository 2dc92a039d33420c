package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	col := &Collector{}
	tr := New("run", col)
	a := tr.Root().Child("a", 0)
	a1 := a.Child("a1", 0)
	a1.SetInt("rows", 7)
	a1.End()
	a.End()
	b := tr.Root().Child("b", 1)
	b.SetLabel("tbl")
	b.End()
	tr.Counter("hits").Add(3)
	tr.Counter("hits").Add(2)
	tr.Gauge("size").Set(11)
	stats := tr.Finish()

	if stats.Name != "run" || stats.Root == nil {
		t.Fatalf("bad stats root: %+v", stats)
	}
	if len(stats.Root.Children) != 2 {
		t.Fatalf("want 2 children, got %d", len(stats.Root.Children))
	}
	if stats.Root.Children[0].Name != "a" || stats.Root.Children[1].Name != "b" {
		t.Fatalf("children out of order: %v", stats.Root.Children)
	}
	if stats.Root.Children[1].Label != "tbl" {
		t.Fatalf("label lost: %+v", stats.Root.Children[1])
	}
	if got := stats.Root.Children[0].Children[0].Attrs["rows"]; got != 7 {
		t.Fatalf("attr rows = %d, want 7", got)
	}
	if stats.Counters["hits"] != 5 || stats.Counters["size"] != 11 {
		t.Fatalf("counters = %v", stats.Counters)
	}
	// Each span's duration must cover its children (serial here).
	if stats.Root.Dur < stats.Root.Children[0].Dur {
		t.Fatalf("root %v shorter than child %v", stats.Root.Dur, stats.Root.Children[0].Dur)
	}
	// The collector saw every span, the counters, and one terminal run event.
	evs := col.Events()
	var spans, counters, runs int
	for _, ev := range evs {
		switch ev.Type {
		case EventSpan:
			spans++
		case EventCounter:
			counters++
		case EventRun:
			runs++
		}
	}
	if spans != 4 || counters != 2 || runs != 1 {
		t.Fatalf("event mix spans=%d counters=%d runs=%d, want 4/2/1", spans, counters, runs)
	}
	if evs[len(evs)-1].Type != EventRun {
		t.Fatalf("run event not last: %v", evs[len(evs)-1])
	}
}

// TestConcurrentChildrenDeterministicOrder creates children from many
// goroutines and asserts the snapshot orders them by ordinal, not by
// completion order.
func TestConcurrentChildrenDeterministicOrder(t *testing.T) {
	tr := New("run")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(ord int) {
			defer wg.Done()
			s := root.Child("item", ord)
			s.SetInt("ord", int64(ord))
			s.End()
		}(i)
	}
	wg.Wait()
	stats := tr.Finish()
	if len(stats.Root.Children) != 64 {
		t.Fatalf("want 64 children, got %d", len(stats.Root.Children))
	}
	for i, c := range stats.Root.Children {
		if c.Ord != i || c.Attrs["ord"] != int64(i) {
			t.Fatalf("child %d has ord %d", i, c.Ord)
		}
	}
}

// TestChildrenInOrderOfFirstAppearance: siblings render as the run happened —
// stage names in the order each first started, a parallel family's members
// by ordinal wherever they were created — not alphabetically.
func TestChildrenInOrderOfFirstAppearance(t *testing.T) {
	tr := New("run")
	root := tr.Root()
	root.Child("prefilter", 0).End()
	sel := root.Child("select", 0)
	sel.Child("select.rep", 2).End()
	sel.Child("select.rep", 0).End()
	sel.Child("select.sweep", 0).End()
	sel.Child("select.rep", 1).End()
	sel.End()
	root.Child("evaluate", 0).End()
	root.Child("batch", 1).End()
	stats := tr.Finish()
	render := func(s *SpanStat) string {
		var parts []string
		for _, c := range s.Children {
			parts = append(parts, fmt.Sprintf("%s[%d]", c.Name, c.Ord))
		}
		return strings.Join(parts, " ")
	}
	if got, want := render(stats.Root), "prefilter[0] select[0] evaluate[0] batch[1]"; got != want {
		t.Fatalf("root children %q, want %q", got, want)
	}
	if got, want := render(stats.Root.Children[1]), "select.rep[0] select.rep[1] select.rep[2] select.sweep[0]"; got != want {
		t.Fatalf("select children %q, want %q", got, want)
	}
}

// TestBeginRestartsClock: a span created ahead of its work (to fix its place
// among its siblings) times only what follows Begin, and keeps that place.
func TestBeginRestartsClock(t *testing.T) {
	tr := New("run")
	first, second := tr.Root().Child("a", 0), tr.Root().Child("b", 0)
	const wait = 50 * time.Millisecond
	time.Sleep(wait)
	second.Begin()
	second.End()
	first.End()
	stats := tr.Finish()
	a, b := stats.Root.Children[0], stats.Root.Children[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("children %s %s, want a b", a.Name, b.Name)
	}
	if a.Dur < wait || b.Dur >= wait {
		t.Fatalf("a ran %v (want ≥ %v), b ran %v (want < %v: Begin restarts its clock)", a.Dur, wait, b.Dur, wait)
	}
	var nilSpan *Span
	nilSpan.Begin()
}

func TestFinishEndsOpenSpans(t *testing.T) {
	tr := New("run")
	open := tr.Root().Child("open", 0)
	_ = open
	stats := tr.Finish()
	if len(stats.Root.Children) != 1 || stats.Root.Children[0].Dur < 0 {
		t.Fatalf("open span not closed in snapshot: %+v", stats.Root.Children)
	}
	// Idempotent: a second Finish returns the same structure.
	again := tr.Finish()
	if len(again.Root.Children) != 1 {
		t.Fatalf("second Finish lost spans")
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Root().Child("x", 0)
	sp.SetInt("k", 1)
	sp.SetLabel("l")
	sp.End()
	tr.Counter("c").Add(1)
	tr.Gauge("g").Set(1)
	if tr.Root() != nil || tr.Finish() != nil || tr.Metrics() != nil {
		t.Fatal("nil trace must produce nothing")
	}
	if sp.Duration() != 0 || tr.Counter("c").Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestNDJSONSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := New("run", NewNDJSONSink(&buf))
	s := tr.Root().Child("join", 2)
	s.SetInt("rows_matched", 5)
	s.End()
	tr.Counter("join.rows_matched").Add(5)
	tr.Finish()

	// Six lines: the child span, the root span, the counter, the two
	// span-duration histograms, the run event.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 NDJSON lines, got %d:\n%s", len(lines), buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Type != EventSpan || ev.Name != "join" || ev.Ord != 2 ||
		ev.Path != "run/join[2]" || ev.Attrs["rows_matched"] != 5 {
		t.Fatalf("span event wrong: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil || ev.Type != EventRun {
		t.Fatalf("last line not a run event: %v %+v", err, ev)
	}
}

func TestRenderAndStageTotals(t *testing.T) {
	tr := New("augment")
	j := tr.Root().Child("join", 0)
	time.Sleep(time.Millisecond)
	j.End()
	j2 := tr.Root().Child("join", 1)
	j2.End()
	stats := tr.Finish()

	totals := stats.StageTotals()
	if totals["join"] <= 0 || totals["join"] > totals["augment"]*2 {
		t.Fatalf("join total %v implausible (root %v)", totals["join"], totals["augment"])
	}
	if stats.SpanCounts()["join"] != 2 {
		t.Fatalf("span counts: %v", stats.SpanCounts())
	}
	out := stats.Render()
	if !strings.Contains(out, "augment") || !strings.Contains(out, "join[1]") {
		t.Fatalf("render missing spans:\n%s", out)
	}
}

package obs

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

func emitN(s *StreamSink, n int) {
	for i := 0; i < n; i++ {
		s.Emit(Event{Type: EventSpan, Name: "e" + strconv.Itoa(i), Ord: i})
	}
}

// drain reads the channel to closure and returns everything received.
func drain(sub *Subscription) []Event {
	var out []Event
	for ev := range sub.Events() {
		out = append(out, ev)
	}
	return out
}

func TestStreamFastSubscriberSeesEverything(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(0)
	sub := s.Subscribe(1024)
	emitN(s, 500)
	s.Flush()
	got := drain(sub)
	if len(got) != 500 {
		t.Fatalf("fast subscriber got %d events, want 500", len(got))
	}
	for i, ev := range got {
		if ev.Ord != i {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("fast subscriber dropped %d, want 0", sub.Dropped())
	}
	if s.Emitted() != 500 {
		t.Fatalf("emitted = %d, want 500", s.Emitted())
	}
}

// TestStreamSlowSubscriberDropsDeterministically: a subscriber that never
// reads keeps exactly its channel capacity and loses the rest, with the
// loss counted — delivered + dropped == emitted, exactly.
func TestStreamSlowSubscriberDropsDeterministically(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(0)
	sub := s.Subscribe(16) // capacity 16, no reader until after Flush
	emitN(s, 500)
	s.Flush()
	got := drain(sub)
	if len(got) != 16 {
		t.Fatalf("slow subscriber got %d events, want exactly its buffer of 16", len(got))
	}
	if sub.Dropped() != 500-16 {
		t.Fatalf("dropped = %d, want %d", sub.Dropped(), 500-16)
	}
	if int64(len(got))+sub.Dropped() != s.Emitted() {
		t.Fatalf("delivered(%d) + dropped(%d) != emitted(%d)",
			len(got), sub.Dropped(), s.Emitted())
	}
}

// TestStreamHistoryReplay: a subscriber attaching mid-run first receives
// every event recorded so far, then the live tail — so /events readers that
// connect after the run started still see the run from the beginning.
func TestStreamHistoryReplay(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(0)
	emitN(s, 100)
	late := s.Subscribe(64)
	emitN(s, 10)
	s.Flush()
	got := drain(late)
	if len(got) != 110 {
		t.Fatalf("late subscriber got %d events, want 110 (100 replayed + 10 live)", len(got))
	}
	if got[0].Name != "e0" || got[99].Name != "e99" || got[100].Name != "e0" {
		t.Fatalf("replay order wrong: %s %s %s", got[0].Name, got[99].Name, got[100].Name)
	}
	if sub := s.Subscribe(4); len(drain(sub)) != 110 {
		t.Fatal("post-flush subscriber must still receive the recorded history")
	}
}

// TestStreamHistoryOverflow: the replay buffer stops recording at capacity;
// live subscribers still get everything, and the overflow is counted.
func TestStreamHistoryOverflow(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(8)
	live := s.Subscribe(64)
	emitN(s, 20)
	s.Flush()
	if n := len(drain(live)); n != 20 {
		t.Fatalf("live subscriber got %d, want all 20", n)
	}
	if s.Overflowed() != 12 {
		t.Fatalf("overflowed = %d, want 12", s.Overflowed())
	}
	if n := len(drain(s.Subscribe(4))); n != 8 {
		t.Fatalf("late subscriber got %d, want the 8 recorded", n)
	}
}

// TestStreamHistoryGrowsOnDemand: a sink holds no replay buffer until its
// first event, and after k events its buffer has room for at most
// max(2k, 16), never more than its cap, so a run that emits a hundred
// events does not pay for the default cap of 16,384.
func TestStreamHistoryGrowsOnDemand(t *testing.T) {
	for _, c := range []struct{ historyCap, emits int }{{0, 3000}, {100, 300}, {1, 4}} {
		s := NewStreamSink(c.historyCap)
		if got := cap(s.history); got != 0 {
			t.Fatalf("cap %d: fresh sink holds capacity for %d events, want 0", c.historyCap, got)
		}
		for k := 1; k <= c.emits; k++ {
			s.Emit(Event{Type: EventSpan, Name: "e", Ord: k})
			got := cap(s.history)
			if bound := max(2*k, 16); got > bound {
				t.Fatalf("cap %d: after %d emits the history has capacity %d, want ≤ %d", c.historyCap, k, got, bound)
			}
			if got > s.historyCap {
				t.Fatalf("cap %d: after %d emits the history has capacity %d, above the cap %d", c.historyCap, k, got, s.historyCap)
			}
			if want := min(k, s.historyCap); len(s.history) != want {
				t.Fatalf("cap %d: after %d emits the history holds %d events, want %d", c.historyCap, k, len(s.history), want)
			}
		}
		s.Flush()
		got := drain(s.Subscribe(0))
		if len(got) != min(c.emits, s.historyCap) {
			t.Fatalf("cap %d: late subscriber got %d events, want %d", c.historyCap, len(got), min(c.emits, s.historyCap))
		}
		for i, ev := range got {
			if ev.Ord != i+1 {
				t.Fatalf("cap %d: replayed event %d is emit %d, want %d", c.historyCap, i, ev.Ord, i+1)
			}
		}
	}
}

func TestStreamSubscriptionClose(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(0)
	a := s.Subscribe(4)
	b := s.Subscribe(1024)
	emitN(s, 2)
	a.Close()
	a.Close() // idempotent
	emitN(s, 3)
	s.Flush()
	a.Close() // no-op after flush
	if n := len(drain(a)); n != 2 {
		t.Fatalf("closed subscription got %d, want only the 2 pre-close events", n)
	}
	if n := len(drain(b)); n != 5 {
		t.Fatalf("surviving subscription got %d, want 5", n)
	}
}

// TestStreamSinkOnTrace: wired into a real trace, subscribers see span
// events as spans end and the stream terminates at Finish with the run
// event last.
func TestStreamSinkOnTrace(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	s := NewStreamSink(0)
	sub := s.Subscribe(0)
	tr := New("run", s)
	tr.Root().Child("join", 1).End()
	tr.Counter("c").Add(2)
	tr.Finish()
	got := drain(sub)
	if len(got) == 0 || got[len(got)-1].Type != EventRun {
		t.Fatalf("stream must end with the run event, got %+v", got)
	}
	var sawSpan, sawHist, sawCounter bool
	for _, ev := range got {
		switch ev.Type {
		case EventSpan:
			sawSpan = true
		case EventHist:
			sawHist = true
		case EventCounter:
			sawCounter = true
		}
	}
	if !sawSpan || !sawHist || !sawCounter {
		t.Fatalf("stream missing event kinds: span=%v hist=%v counter=%v",
			sawSpan, sawHist, sawCounter)
	}
}

// TestTraceSinksSeeOneOrder ends spans from concurrent goroutines: every
// sink of the trace must receive the events in the same order, so a live
// stream and the trace file published beside it hold one sequence.
func TestTraceSinksSeeOneOrder(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	a, b := NewStreamSink(0), NewStreamSink(0)
	subA, subB := a.Subscribe(4096), b.Subscribe(4096)
	tr := New("run", a, b)
	root := tr.Root()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root.Child("work", g*100+i).End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	gotA, gotB := drain(subA), drain(subB)
	if len(gotA) != len(gotB) {
		t.Fatalf("sinks received %d and %d events", len(gotA), len(gotB))
	}
	for i := range gotA {
		if !reflect.DeepEqual(gotA[i], gotB[i]) {
			t.Fatalf("event %d differs between sinks: %+v vs %+v", i, gotA[i], gotB[i])
		}
	}
}

package obs

import (
	"sync"
	"sync/atomic"
)

// defaultStreamHistory is the most events a StreamSink replays to late
// subscribers when constructed with NewStreamSink(0). A full traced run on
// the largest synthetic corpus emits a few thousand events (one per ended
// span plus the terminal metrics), so the cap comfortably holds a whole run.
// It bounds the buffer, it does not size it: the history grows with the
// events actually emitted (an ardad run emits ~130).
const defaultStreamHistory = 16384

// minStreamHistory is the history's first allocation, made on the first
// Emit.
const minStreamHistory = 16

// StreamSink is the live event bus of the telemetry plane: a Sink that fans
// every emitted event out to any number of subscribers over bounded
// channels, with deterministic drop accounting instead of blocking. It is
// the substrate for streaming run progress (the `/events` NDJSON endpoint
// today, ardad's SSE tomorrow).
//
// Three properties matter to callers:
//
//   - Emit never blocks, and it allocates only to grow the history: a
//     subscriber whose channel is full loses that event and its drop counter
//     increments, so delivered + dropped == emitted holds exactly per
//     subscription.
//   - The sink records the first historyCap events and replays them to every
//     new subscriber before any live event, so a subscriber that connects
//     mid-run still sees the run from the start (in emission order). The
//     history starts empty and doubles as events arrive, never past
//     historyCap, so a sink costs about what its run emitted, not its cap.
//   - Flush (called once by Trace.Finish) closes every subscriber channel,
//     so range-loops over Subscription.Events terminate when the run does.
type StreamSink struct {
	mu         sync.Mutex
	history    []Event
	historyCap int
	overflowed int64 // events emitted after history filled (not replayable)
	emitted    int64
	subs       []*Subscription
	closed     bool
}

// NewStreamSink returns a stream bus whose replay buffer holds up to
// historyCap events (<= 0 means the default). Nothing is allocated for the
// buffer until the first Emit. The sink is usable immediately; subscribers
// may attach before or after it is wired into a Trace.
func NewStreamSink(historyCap int) *StreamSink {
	if historyCap <= 0 {
		historyCap = defaultStreamHistory
	}
	return &StreamSink{historyCap: historyCap}
}

// Emit implements Sink: record into the replay buffer (until full) and
// offer the event to every subscriber without blocking.
func (s *StreamSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.emitted++
	if n := len(s.history); n < s.historyCap {
		if n == cap(s.history) {
			// Grown by hand, not by append, so the capacity stays at most
			// twice the events held and never passes historyCap.
			grown := make([]Event, n, min(max(2*n, minStreamHistory), s.historyCap))
			copy(grown, s.history)
			s.history = grown
		}
		s.history = append(s.history, ev)
	} else {
		s.overflowed++
	}
	for _, sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
}

// Flush implements Sink: it marks the stream complete and closes every
// subscriber channel. Events emitted after Flush are discarded. Flush is
// idempotent.
func (s *StreamSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, sub := range s.subs {
		close(sub.ch)
	}
	s.subs = nil
	return nil
}

// Emitted returns how many events the sink has accepted so far.
func (s *StreamSink) Emitted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted
}

// Overflowed returns how many events arrived after the replay buffer filled
// (they still reached live subscribers but are invisible to later ones).
func (s *StreamSink) Overflowed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflowed
}

// Subscribe attaches a new subscriber and replays the recorded history into
// its channel before any live event. buf bounds the channel capacity
// available for live events beyond the replay (<= 0 means 256); a
// subscriber that cannot keep up loses events (counted, never blocking the
// pipeline). Subscribing to an already-flushed sink returns a subscription
// whose channel delivers the recorded history and is already closed.
func (s *StreamSink) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 256
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The channel always has room for the full replay, so history is never
	// dropped — only live events compete for the remaining buf slots.
	sub := &Subscription{s: s, ch: make(chan Event, len(s.history)+buf)}
	for _, ev := range s.history {
		sub.ch <- ev
	}
	if s.closed {
		close(sub.ch)
		return sub
	}
	s.subs = append(s.subs, sub)
	return sub
}

// Subscription is one subscriber's view of a StreamSink.
type Subscription struct {
	s       *StreamSink
	ch      chan Event
	dropped atomic.Int64
}

// Events returns the receive channel: recorded history first, then live
// events, closed when the trace finishes (or the subscription is closed).
func (u *Subscription) Events() <-chan Event { return u.ch }

// Dropped returns how many live events this subscriber lost to a full
// channel. For any subscription attached before the first emit,
// delivered + Dropped() == StreamSink.Emitted() holds exactly.
func (u *Subscription) Dropped() int64 { return u.dropped.Load() }

// Close detaches the subscription and closes its channel; safe to call
// concurrently with Emit, idempotent, and a no-op after the sink flushed
// (Flush already closed the channel).
func (u *Subscription) Close() {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	if u.s.closed {
		return
	}
	for i, sub := range u.s.subs {
		if sub == u {
			u.s.subs = append(u.s.subs[:i], u.s.subs[i+1:]...)
			close(u.ch)
			return
		}
	}
}

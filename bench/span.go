package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one duration
// the program reported about itself (Reported). Spans of one pipeline run or
// one HTTP run share Run; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus what its children cover; filled in
	// when the file is written.
	SelfNS int64 `json:"self_ns"`
	// Reported marks a duration read from the program's own telemetry
	// (Result.Trace stage totals). Only its length is measured; it is laid
	// out after its previous sibling inside the parent.
	Reported bool `json:"reported,omitempty"`
}

// recorder keeps the traced run's spans in memory until the workload ends.
// A nil recorder records nothing, so untraced runs pay nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID for end and for children.
func (r *recorder) start(parent int, run, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNS: now, EndNS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// reported attaches program-reported durations as children of parent, laid
// end to end from the parent's start in the given order.
func (r *recorder) reported(parent int, run string, names []string, durs []time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent-1].StartNS
	for i, name := range names {
		id := len(r.spans) + 1
		end := at + durs[i].Nanoseconds()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNS: at, EndNS: end, Reported: true})
		at = end
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// calls) are counted once; a child reaching outside its parent is clipped.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach int64
		reach = s.StartNS
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// write stores the spans as NDJSON, one span per line, in the order recorded.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.SelfNS = self[s.ID]
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

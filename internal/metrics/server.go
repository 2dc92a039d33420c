package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// samplerInterval is the runtime-sampler cadence for served traces: fast
// enough that a scraper sees live heap/worker numbers, slow enough that
// ReadMemStats stays invisible in profiles.
const samplerInterval = 250 * time.Millisecond

// Server is the live telemetry endpoint for one run:
//
//	/metrics — Prometheus text exposition of counters, gauges, histograms
//	/statusz — the rendered live stage tree + attrition counters
//	/events  — the run's NDJSON event stream (replayed from the start,
//	           then live, closing when the run finishes)
//	/debug/pprof/ — the net/http/pprof profiles of the process
//
// It owns a runtime sampler feeding heap/GC/goroutine gauges and worker-pool
// utilization into the trace, so scrapes always see fresh values. The
// sampler makes gauge values wall-clock dependent, which is why serving is
// opt-in (`-metrics-addr`) and never wired in deterministic test paths.
type Server struct {
	h       *Handle
	tr      *obs.Trace
	stream  *obs.StreamSink
	sampler *obs.RuntimeSampler
}

// NewServer listens on addr and starts serving tr's telemetry. stream must
// be one of tr's sinks (it feeds /events); a nil stream disables /events
// with 404s. The returned server is already running; stop it with Close.
func NewServer(addr string, tr *obs.Trace, stream *obs.StreamSink) (*Server, error) {
	s := &Server{tr: tr, stream: stream}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	h, err := Listen(addr, mux)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	s.h = h
	s.sampler = StartSampler(tr)
	return s, nil
}

// StartSampler starts the runtime sampler every served trace carries:
// heap/GC/goroutine gauges plus worker-pool utilization, at samplerInterval.
func StartSampler(tr *obs.Trace) *obs.RuntimeSampler {
	return obs.StartRuntimeSampler(tr, samplerInterval, map[string]func() int64{
		"workers.in_flight": func() int64 { return int64(parallel.InFlight()) },
		"workers.max":       func() int64 { return int64(parallel.MaxWorkers()) },
	})
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.h.Addr() }

// Close stops the sampler and shuts the server down gracefully via the
// shared listener lifecycle, waiting up to DefaultShutdownTimeout for
// in-flight requests (an /events stream drains once the trace finished).
// Safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.sampler.Stop()
	return s.h.Shutdown(0)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ServeMetrics(w, s.tr)
}

// ServeMetrics writes tr's counters, gauges and histograms as a Prometheus
// text-exposition response — the /metrics body of both the single-run
// telemetry server and the ardad daemon.
func ServeMetrics(w http.ResponseWriter, tr *obs.Trace) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counters, gauges := tr.Scalars()
	WritePrometheus(w, counters, gauges, tr.Histograms())
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap := s.tr.Snapshot()
	fmt.Fprintf(w, "run: %s\nelapsed: %s\n\n", snap.Name, snap.Elapsed.Round(time.Millisecond))
	fmt.Fprint(w, snap.Render())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.stream == nil {
		http.NotFound(w, r)
		return
	}
	ServeEvents(w, r, s.stream)
}

// ServeEvents streams a trace's events as NDJSON: the recorded history first
// (so a client that connects mid-run sees the run from the start), then live
// events, terminating when the trace finishes or the client goes away.
func ServeEvents(w http.ResponseWriter, r *http.Request, stream *obs.StreamSink) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers so clients know they are connected
	}
	sub := stream.Subscribe(4096)
	defer sub.Close()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

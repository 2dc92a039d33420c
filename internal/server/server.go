// Package server is ardad's HTTP face: a thin, stateless layer that maps
// REST-ish endpoints onto a runqueue.Manager. All queueing, durability, and
// execution semantics live in the manager; the server only translates
// transport — JSON in/out, typed admission errors to status codes (429 queue
// full or tenant limit, 503 draining, 409 owned by a peer daemon), and the
// per-run event stream to NDJSON over a flushed connection. Retry-After
// values on 429/503 carry bounded seeded jitter so a fleet of rejected
// clients does not retry in lockstep.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/arda-ml/arda/internal/metrics"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/retry"
	"github.com/arda-ml/arda/internal/runqueue"
)

// Server serves the augmentation service API for one manager:
//
//	POST   /runs             submit a run (JSON runqueue.Spec) → 202 + record
//	GET    /runs             list all runs
//	GET    /runs/{id}        one run's record
//	GET    /runs/{id}/result a completed run's result
//	GET    /runs/{id}/events the run's trace event stream (NDJSON, live)
//	GET    /runs/{id}/table  the augmented table (keep_table runs)
//	DELETE /runs/{id}        cancel the run
//	GET    /metrics          Prometheus exposition of the daemon trace
//	GET    /statusz          queue accounting + run table, human-readable
//	GET    /healthz          200 while admitting, 503 while draining
type Server struct {
	mgr     *runqueue.Manager
	tr      *obs.Trace
	h       *metrics.Handle
	sampler *obs.RuntimeSampler
	// jitter decorrelates Retry-After values across rejected clients; seeded
	// deterministically so tests can assert the emitted bounds.
	jitter *retry.Jitter
}

// New binds addr and starts serving the manager's API. tr is the daemon's
// long-lived trace (queue metrics, runtime gauges); the server starts a
// runtime sampler into it so /metrics scrapes see live heap and worker-pool
// numbers. Stop with Close.
func New(addr string, mgr *runqueue.Manager, tr *obs.Trace) (*Server, error) {
	s := &Server{mgr: mgr, tr: tr, jitter: retry.NewJitter(time.Now().UnixNano())}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/table", s.handleTable)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	h, err := metrics.Listen(addr, mux)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.h = h
	s.sampler = metrics.StartSampler(tr)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.h.Addr() }

// Close stops the sampler and shuts the listener down gracefully, waiting up
// to timeout (0 means the shared default) for in-flight requests. Safe on a
// nil server.
func (s *Server) Close(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	s.sampler.Stop()
	return s.h.Shutdown(timeout)
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfter429 / retryAfter503 bound the jittered Retry-After windows:
// rejected submissions retry within [1,4) seconds, draining responses within
// [5,9). The spread keeps a burst of rejected clients from retrying in
// lockstep and re-creating the pressure that rejected them.
func (s *Server) retryAfter429() string { return strconv.Itoa(s.jitter.Seconds(1, 3)) }
func (s *Server) retryAfter503() string { return strconv.Itoa(s.jitter.Seconds(5, 4)) }

// writeError maps manager errors onto transport semantics. Admission
// pressure is explicitly retryable: 429 (queue full or tenant limit) and 503
// (draining) carry a jittered Retry-After so well-behaved clients back off
// instead of hammering; a run owned by a peer daemon over the shared state
// dir is 409 — cancel it through its owner.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var tle *runqueue.TenantLimitError
	var status int
	switch {
	case errors.Is(err, runqueue.ErrQueueFull), errors.As(err, &tle):
		w.Header().Set("Retry-After", s.retryAfter429())
		status = http.StatusTooManyRequests
	case errors.Is(err, runqueue.ErrDraining):
		w.Header().Set("Retry-After", s.retryAfter503())
		status = http.StatusServiceUnavailable
	case errors.Is(err, runqueue.ErrNotOwned):
		status = http.StatusConflict
	case errors.Is(err, runqueue.ErrNotFound):
		status = http.StatusNotFound
	default:
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec runqueue.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, fmt.Errorf("decoding spec: %w", err))
		return
	}
	rec, err := s.mgr.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/runs/"+rec.ID)
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if rec.State != runqueue.StateCompleted || rec.Result == nil {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("run %s is %s, no result", rec.ID, rec.State),
		})
		return
	}
	writeJSON(w, http.StatusOK, rec.Result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	rec, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	path := s.mgr.TablePath(rec.ID)
	if _, err := os.Stat(path); err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("run %s kept no table (submit with keep_table)", rec.ID),
		})
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	http.ServeFile(w, r, path)
}

// handleEvents streams one run's trace events as NDJSON: replayed history
// first, then live events, terminating when the attempt's trace finishes.
// For a run executed by an earlier daemon process (no live stream) the
// persisted trace file is served instead — the same NDJSON, just not live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	stream, path, err := s.mgr.Stream(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if stream == nil {
		if _, serr := os.Stat(path); serr != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "run has not executed yet"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		http.ServeFile(w, r, path)
		return
	}
	metrics.ServeEvents(w, r, stream)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metrics.ServeMetrics(w, s.tr)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	a := s.mgr.Accounting()
	fmt.Fprintf(w, "draining: %v\n", s.mgr.Draining())
	// The second field is a constant: a restart's adoptions are takeovers, and
	// the benchmark's parser still expects seven fields on this line.
	fmt.Fprintf(w, "admitted %d  requeued 0  takeovers %d  completed %d  failed %d  canceled %d  lost %d\n",
		a.Admitted, a.Takeovers, a.Completed, a.Failed, a.Canceled, a.Lost)
	fmt.Fprintf(w, "rejected: %d full, %d draining, %d tenant\n", a.RejectedFull, a.RejectedDraining, a.RejectedTenant)
	fmt.Fprintf(w, "live: %d queued, %d running\n", a.Queued, a.Running)
	fmt.Fprintf(w, "leases: %d held, %d renewals\n", a.LeasesHeld, a.LeaseRenewals)
	for _, l := range a.Lanes {
		fmt.Fprintf(w, "tenant %-12s queued %d  running %d  admitted %d  rejected %d\n",
			l.Tenant, l.Queued, l.Running, l.Admitted, l.Rejected)
	}
	fmt.Fprintln(w)
	for _, rec := range s.mgr.List() {
		line := fmt.Sprintf("%-8s %-9s %s/%s", rec.ID, rec.State, rec.Spec.Base, rec.Spec.Target)
		if rec.Error != "" {
			line += "  (" + rec.Error + ")"
		}
		fmt.Fprintln(w, line)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.Draining() {
		w.Header().Set("Retry-After", s.retryAfter503())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

package runqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/retry"
)

// execute drives one claimed run from queued to a terminal state (or back to
// queued, if a drain preempts it; or abandoned, if its lease is stolen). It
// owns the run's full failure surface: panics in the attempt are contained
// and converted to errors, transient failures retry with capped exponential
// backoff, and every state transition persists, fenced by the run's lease,
// before execute returns the supervisor to the queue.
func (m *Manager) execute(r *run) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m.mu.Lock()
	if r.leaseLost {
		// Fenced out between the queue pop and here: the new owner has it.
		id := r.rec.ID
		m.mu.Unlock()
		m.logf("abandoned %s before start: lease lost to another owner", id)
		return
	}
	r.rec.State = StateRunning
	r.rec.StartedAt = time.Now()
	r.rec.Error = ""
	r.cancel = cancel
	if r.userCanceled {
		// Canceled in the claim window between the queue pop and here: the
		// attempt below starts with a dead context and stops immediately.
		cancel()
	}
	wait := r.rec.StartedAt.Sub(r.rec.SubmittedAt)
	l := m.lanes[r.tenant]
	m.mu.Unlock()
	m.hWait.Observe(int64(wait))
	if l != nil {
		l.hWait.Observe(int64(wait))
	}
	if err := m.persist(r); err != nil {
		if errors.Is(err, lease.ErrLeaseLost) {
			m.markLost(r)
			return
		}
		m.logf("persisting running %s: %v", r.rec.ID, err)
	}
	m.logf("started %s after %s queued", r.rec.ID, wait.Round(time.Millisecond))

	policy := retry.Policy{Attempts: m.cfg.RetryAttempts, Base: m.cfg.RetryBase, Max: m.cfg.RetryMax}
	var res *RunResult
	var err error
	start := time.Now()
	// An unusable checkpoint is not an unusable run: the clean fallback is
	// running without it (core/durability.go). Once per execute, a corrupt or
	// mismatched checkpoint is discarded — under a lease check, so only the
	// run's owner deletes — and the attempt starts over from scratch under a
	// fresh trace; a second such error is a real failure.
	discarded := false
	attempt := func() (*RunResult, error) {
		res, err := m.attempt(ctx, r)
		if discarded || !(errors.Is(err, core.ErrCheckpointCorrupt) || errors.Is(err, core.ErrCheckpointMismatch)) {
			return res, err
		}
		discarded = true
		m.mu.Lock()
		id, lse := r.rec.ID, r.lease
		m.mu.Unlock()
		if lerr := lse.Check(); lerr != nil {
			return nil, lerr
		}
		if derr := checkpoint.Discard(m.ckDir(id)); derr != nil {
			m.logf("discarding checkpoint of %s: %v", id, derr)
			return nil, err
		}
		m.cDiscarded.Add(1)
		m.logf("%s: checkpoint unusable, discarded; restarting from scratch: %v", id, err)
		return m.attempt(ctx, r)
	}
	for try := 1; ; try++ {
		res, err = attempt()
		if err == nil || !faults.IsTransient(err) || try >= policy.Attempts {
			break
		}
		// Transient failure with budget left: back off (abandoning the wait
		// if the run is canceled meanwhile) and go again. The next attempt
		// resumes from the run's checkpoint, so retries never repeat stages
		// that already completed.
		m.cRetried.Add(1)
		m.logf("%s attempt %d failed (transient): %v — retrying", r.rec.ID, try, err)
		if wait := policy.Backoff(try + 1); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			err = core.ErrCanceled
			break
		}
	}
	m.hRun.Observe(int64(time.Since(start)))

	m.mu.Lock()
	r.cancel = nil
	preempted := r.drainPreempted && !r.userCanceled
	lost := r.leaseLost
	m.mu.Unlock()

	switch {
	case lost || errors.Is(err, lease.ErrLeaseLost):
		// Fenced out mid-run (heartbeat observed the theft, or a fenced write
		// did): the new owner resumes from the shared checkpoint. Nothing is
		// persisted here — writing now would fight the new owner's state.
		// (markLost is a no-op when the heartbeat already booked the loss.)
		m.markLost(r)
	case err == nil:
		m.finishRun(r, StateCompleted, res, "")
	case errors.Is(err, core.ErrCanceled) && preempted:
		// Drain preemption: the run's checkpoint holds every completed stage;
		// return it to the queue so the next process resumes it.
		m.requeueRun(r)
	case errors.Is(err, core.ErrCanceled):
		m.finishRun(r, StateCanceled, nil, err.Error())
	default:
		m.finishRun(r, StateFailed, nil, err.Error())
	}
}

// finishRun makes a terminal transition durable, then visible, then settles
// the run's artifacts — in that order, so a process killed at any instant
// leaves either a non-terminal record next to an intact checkpoint or a
// terminal record. The terminal record is built aside; a completed run
// publishes result.json; run.json is persisted, fenced twice (a verification
// here and the persist's own) so a stale owner abandons instead of
// overwriting the new owner's record. Then the in-memory run (what Get and
// List serve) turns terminal and its counter moves in one critical section,
// so no Accounting snapshot sees the run both running and terminal. Last, a
// completed run's checkpoint directory goes (nothing left to resume; failed
// and canceled runs keep theirs for postmortem or resubmission, as does a
// completed one whose record could not be written) and the lease is released.
func (m *Manager) finishRun(r *run, state State, res *RunResult, errMsg string) {
	m.mu.Lock()
	lse := r.lease
	rec := r.rec
	m.mu.Unlock()
	if err := lse.Check(); err != nil {
		m.markLost(r)
		return
	}
	rec.State = state
	rec.Error = errMsg
	rec.FinishedAt = time.Now()
	rec.Result = res

	if state == StateCompleted {
		body, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = retry.Do(nil, persistRetry, faults.IsTransient, func() error {
				if ferr := m.cfg.Injector.Check(faults.SiteServerPersist, int(rec.Seq)); ferr != nil {
					return ferr
				}
				return atomicio.WriteFileBytes(filepath.Join(m.runDir(rec.ID), "result.json"), body)
			})
		}
		if err != nil {
			// The record still carries the result; losing result.json costs a
			// convenience file, not the run.
			m.cPersistFailures.Add(1)
			m.logf("publishing result for %s: %v", rec.ID, err)
		}
	}
	perr := m.persistRecord(rec, lse)
	if errors.Is(perr, lease.ErrLeaseLost) {
		m.markLost(r)
		return
	}
	if perr != nil {
		m.logf("persisting %s %s: %v", state, rec.ID, perr)
	}
	var counter *obs.Counter
	var line string
	switch state {
	case StateCompleted:
		counter = m.cCompleted
		line = fmt.Sprintf("completed %s: base %.4f → augmented %.4f, %d columns kept",
			rec.ID, res.BaseScore, res.FinalScore, len(res.KeptColumns))
	case StateFailed:
		counter, line = m.cFailed, fmt.Sprintf("failed %s: %s", rec.ID, errMsg)
	case StateCanceled:
		counter, line = m.cCanceled, "canceled "+rec.ID
	}
	m.mu.Lock()
	if r.leaseLost {
		// A heartbeat observed the theft while the record was being written:
		// the run is already booked as lost, and its new owner finishes it.
		m.mu.Unlock()
		return
	}
	r.rec.State, r.rec.Error, r.rec.FinishedAt, r.rec.Result = state, errMsg, rec.FinishedAt, res
	counter.Add(1)
	m.mu.Unlock()
	m.logf("%s", line)
	if state == StateCompleted && perr == nil {
		if err := checkpoint.Discard(m.ckDir(rec.ID)); err != nil {
			m.logf("clearing checkpoints for %s: %v", rec.ID, err)
		}
	}
	lse.Release()
	m.mu.Lock()
	r.lease = nil
	m.updateLeaseGaugeLocked()
	m.mu.Unlock()
}

// requeueRun returns a drain-preempted run to the queued state on disk. It
// is not re-added to the in-memory queue — the manager is draining and its
// supervisors are exiting — but the run's lease is released after the fenced
// persist, so a live peer's reaper (or the next Open over this state dir)
// adopts it immediately instead of waiting for this process to exit.
func (m *Manager) requeueRun(r *run) {
	m.mu.Lock()
	r.rec.State = StateQueued
	r.rec.StartedAt = time.Time{}
	r.rec.Error = ""
	lse := r.lease
	m.mu.Unlock()
	if err := m.persist(r); err != nil {
		if errors.Is(err, lease.ErrLeaseLost) {
			m.markLost(r)
			return
		}
		m.logf("persisting preempted %s: %v", r.rec.ID, err)
	}
	if err := lse.Release(); err != nil {
		m.logf("releasing preempted %s: %v", r.rec.ID, err)
	}
	m.mu.Lock()
	r.lease = nil
	m.updateLeaseGaugeLocked()
	m.mu.Unlock()
	m.logf("preempted %s: checkpointed, will resume on restart", r.rec.ID)
}

// fencedSink gates an NDJSON trace sink's publication on the run's lease:
// events stream through untouched, but the atomic rename that publishes
// trace.ndjson is skipped once the lease is lost. The pipeline flushes its
// sinks itself (Trace.Finish, even on error), so the fence must live inside
// the sink — a stale owner's finish would otherwise publish a partial trace
// over (or race) the new owner's.
type fencedSink struct {
	inner obs.Sink
	lse   *lease.Lease
}

func (s *fencedSink) Emit(ev obs.Event) { s.inner.Emit(ev) }

func (s *fencedSink) Flush() error {
	if s.lse.Check() != nil {
		return nil
	}
	return s.inner.Flush()
}

// sanitizeOwner maps a lease owner identity (host:pid:seq) to a filename-
// safe tag for the owner-unique trace tmp name.
func sanitizeOwner(owner string) string {
	b := []byte(owner)
	for i, c := range b {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
		if !ok {
			b[i] = '-'
		}
	}
	return string(b)
}

// attempt executes the spec once, end to end, under a fresh per-attempt
// trace whose event stream is both subscribable live (Manager.Stream) and
// persisted as trace.ndjson in the run directory. Panics anywhere in the
// attempt — CSV loading, discovery, the pipeline — are contained here and
// returned as errors, so one poisoned run cannot take down the daemon. The
// attempt is fenced end to end: every checkpoint write re-verifies the lease
// (core.Options.CheckpointGuard), the final outputs are written only after a
// last verification, and a lost lease suppresses even the trace flush — the
// new owner's artifacts win everywhere.
func (m *Manager) attempt(ctx context.Context, r *run) (res *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("runqueue: run panicked: %v", p)
		}
	}()

	m.mu.Lock()
	// Counted per call; persisted by whichever transition follows the attempt.
	r.rec.Attempts++
	spec := r.rec.Spec
	id := r.rec.ID
	seq := r.rec.Seq
	lse := r.lease
	m.mu.Unlock()

	// The attempt-level fault site: chaos tests fire transient faults here to
	// exercise the supervisor's retry loop around whole attempts.
	if err := m.cfg.Injector.Check(faults.SiteServerRun, int(seq)); err != nil {
		return nil, err
	}

	// A fresh trace per attempt: a trace is finished once, on every exit of
	// the attempt, so attempts cannot share one. The stream sink replays history to
	// late subscribers; the file sink publishes atomically on Flush.
	stream := obs.NewStreamSink(0)
	tracePath := filepath.Join(m.runDir(id), "trace.ndjson")
	// Owner-unique tmp: a peer re-attempting this run after a takeover must
	// never truncate the stale owner's still-open in-progress file (or vice
	// versa). The fenced Flush's rename decides the winner.
	traceTmp := fmt.Sprintf("%s.tmp-%s", tracePath, sanitizeOwner(m.owner))
	fileSink, ferr := obs.NewNDJSONFileSinkAt(tracePath, traceTmp)
	if ferr != nil {
		return nil, fmt.Errorf("runqueue: creating trace sink: %w", ferr)
	}
	guarded := &fencedSink{inner: fileSink, lse: lse}
	trace := obs.New("augment", stream, guarded)
	m.mu.Lock()
	r.stream = stream
	m.mu.Unlock()
	// Every exit finishes the trace — the front half's (load, base lookup,
	// spec options) before the pipeline ever sees it, and a panic's — so the
	// stream closes and GET /runs/{id}/events of a failed run ends instead of
	// blocking. Finish is idempotent; after the pipeline's own it is a no-op.
	// The fenced Flush is repeated only for its error.
	defer func() {
		trace.Finish()
		if perr := guarded.Flush(); perr != nil && err == nil {
			m.logf("publishing trace for %s: %v", id, perr)
		}
	}()

	dir := spec.Dir
	if dir == "" {
		dir = m.cfg.DataDir
	}
	// A canceled run (by its user or by a drain; possibly before it started)
	// stops between the steps of the front half rather than loading or
	// profiling a repository it will never use.
	if ctx.Err() != nil {
		return nil, core.ErrCanceled
	}
	// The same loader the arda CLI uses, so a daemon run over a directory
	// sees the tables the CLI run over it sees.
	loadStart := time.Now()
	tables, err := dataframe.ReadCSVDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runqueue: loading %s: %w", dir, err)
	}
	loadMS := time.Since(loadStart).Milliseconds()
	var base *dataframe.Table
	repo := make([]*dataframe.Table, 0, len(tables))
	for _, t := range tables {
		if t.Name() == spec.Base {
			base = t
		} else {
			repo = append(repo, t)
		}
	}
	if base == nil {
		return nil, fmt.Errorf("runqueue: base table %q not found in %s (%d tables)", spec.Base, dir, len(tables))
	}
	if ctx.Err() != nil {
		return nil, core.ErrCanceled
	}
	discoverStart := time.Now()
	cands := discovery.Discover(base, repo, spec.Target, discovery.Options{})
	if spec.Transitive {
		rng := rand.New(rand.NewSource(spec.seed()))
		cands = append(cands, discovery.Transitive(base, repo, spec.Target, discovery.TransitiveOptions{}, rng)...)
	}
	discoverMS := time.Since(discoverStart).Milliseconds()
	if ctx.Err() != nil {
		return nil, core.ErrCanceled
	}

	opts, err := spec.options(m.cfg)
	if err != nil {
		return nil, err
	}
	opts.CheckpointDir = m.ckDir(id)
	opts.Resume = true // an empty checkpoint directory starts fresh
	opts.FaultInjector = m.cfg.Injector
	opts.Trace = trace
	opts.CheckpointGuard = lse.Check

	out, err := core.AugmentContext(ctx, base, cands, opts)
	if err != nil {
		return nil, err
	}
	// Last fence before publishing outputs: a stolen lease means the new
	// owner computes (bit-identical) outputs of its own — ours must not land
	// next to its record.
	if cerr := lse.Check(); cerr != nil {
		return nil, cerr
	}
	res = &RunResult{
		BaseScore:   out.BaseScore,
		FinalScore:  out.FinalScore,
		KeptColumns: out.KeptColumns,
		KeptTables:  out.KeptTables,
		TableDigest: fmt.Sprintf("%016x", out.Table.Digest()),
		Rows:        out.Table.NumRows(),
		Cols:        out.Table.NumCols(),
		Quarantined: len(out.Quarantined),
		Screened:    out.CandidatesScreened,
		ResumedFrom: out.ResumedFrom,
		LoadMS:      loadMS,
		DiscoverMS:  discoverMS,
		ElapsedMS:   out.Elapsed.Milliseconds(),
		SelectionMS: out.SelectionElapsed.Milliseconds(),
	}
	if spec.KeepTable {
		if werr := out.Table.WriteCSVFile(m.TablePath(id)); werr != nil {
			return nil, fmt.Errorf("runqueue: writing table: %w", werr)
		}
	}
	return res, nil
}

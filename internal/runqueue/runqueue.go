// Package runqueue is the run-management core of the augmentation service: a
// bounded, tenant-fair admission queue feeding a crash-tolerant supervisor
// that executes ARDA runs on the shared worker pool, as one of N >= 1
// cooperating processes over a single shared state directory.
//
// Robustness invariants, in the order they were designed:
//
//   - No accepted run is ever lost. A run's record is persisted crash-safely
//     (internal/atomicio) under the state directory before Submit
//     acknowledges it, every state transition rewrites it, and Open adopts
//     any run found in a non-terminal state that no live process owns — so a
//     `kill -9` of the daemon at any instant is recovered by a restart over
//     the same directory (or by a surviving peer).
//   - Recovery is bit-identical. Each run checkpoints through the ordinary
//     pipeline machinery (internal/checkpoint) into a per-run directory, and
//     an adopted run resumes from its last completed stage; the checkpoint
//     layer's fingerprint + resume guarantees make the recovered result
//     identical to an uninterrupted run at any worker count.
//   - Admission is bounded and fair. The queue holds at most QueueCap
//     waiting runs globally and TenantQueueCap per tenant lane; submits
//     beyond either are rejected (ErrQueueFull / TenantLimitError → HTTP
//     429) rather than buffered without bound, and a draining manager
//     rejects everything (ErrDraining → HTTP 503) while in-flight runs
//     finish or checkpoint. Dispatch is deficit round-robin across tenant
//     lanes — DRRQuantum runs per lane per visit, with TenantMaxInFlight
//     capping each lane's concurrent executions — so a flood from one
//     tenant cannot starve the others.
//   - Failure is contained. Each run executes in a panic-isolated region;
//     transient failures retry with capped exponential backoff
//     (internal/retry); a run that still fails is marked failed without
//     affecting its neighbors. The chaos fault sites faults.SiteServerAdmit
//     and faults.SiteServerPersist let tests fire admission and persistence
//     failures deterministically.
//   - Ownership is leased and fenced. Every run is owned via a crash-safe
//     filesystem lease (internal/lease): admission acquires it, a heartbeat
//     renews it at TTL/3, and every record/checkpoint write re-verifies it
//     first. A reaper — run once at Open, then every TTL/2 — adopts runs
//     whose lease is orphaned (released, expired, or held by a dead process
//     on this host), re-admitting them under a strictly larger fencing token
//     (a takeover); restart recovery is that same adoption. A stale owner
//     observes lease.ErrLeaseLost at its next fenced write or heartbeat and
//     abandons without writing, so two processes never corrupt one run's
//     state; the worst race outcome is duplicated compute, resolved by the
//     higher token.
//
// Accounting is exact: every admitted or taken-over run is, at every
// instant, in exactly one of queued / running / completed / failed /
// canceled / lost, and the obs counters (queue.admitted, lease.takeovers,
// queue.completed, queue.failed, queue.canceled, lease.lost,
// queue.rejected_full, queue.rejected_draining, queue.rejected_tenant) plus
// the queue.depth / queue.running gauges reconcile against that partition —
// the chaos suite asserts it in-process and the multi-daemon gate asserts it
// across SIGKILLed processes.
package runqueue

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// Typed admission failures; the HTTP layer maps them to 429 and 503.
var (
	// ErrQueueFull reports a submission rejected because the waiting queue is
	// at capacity.
	ErrQueueFull = errors.New("runqueue: queue full")
	// ErrDraining reports a submission rejected because the manager is
	// draining (or closed) and no longer admits runs.
	ErrDraining = errors.New("runqueue: draining, not admitting runs")
	// ErrNotFound reports an unknown run ID.
	ErrNotFound = errors.New("runqueue: no such run")
	// ErrNotOwned reports an operation (cancel) on a live run owned by
	// another process sharing the state directory; the HTTP layer maps it to
	// 409.
	ErrNotOwned = errors.New("runqueue: run is owned by another process")
)

// State is a run's lifecycle position.
type State string

const (
	// StateQueued: admitted, persisted, waiting for a supervisor slot. Also
	// the state a preempted, crash-interrupted, or taken-over run returns to.
	StateQueued State = "queued"
	// StateRunning: executing on the worker pool.
	StateRunning State = "running"
	// StateCompleted: finished successfully; result.json is published.
	StateCompleted State = "completed"
	// StateFailed: exhausted its retries (or exceeded its budget) and gave up.
	StateFailed State = "failed"
	// StateCanceled: terminated by a cancel request.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is an end state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// RunResult is the deterministic summary of a completed run — everything a
// client needs to verify bit-identity without downloading the table. Scores
// are exact (float64 round-trips through JSON) and TableDigest fingerprints
// the full augmented table, so two runs are output-identical iff their
// RunResults match on the deterministic fields (Elapsed/Selection/ResumedFrom
// are informational).
type RunResult struct {
	BaseScore   float64  `json:"base_score"`
	FinalScore  float64  `json:"final_score"`
	KeptColumns []string `json:"kept_columns"`
	KeptTables  []string `json:"kept_tables"`
	TableDigest string   `json:"table_digest"`
	Rows        int      `json:"rows"`
	Cols        int      `json:"cols"`
	Quarantined int      `json:"quarantined"`
	// Screened is how many candidates the screen stage took out before the
	// join plan (0 when they all fit the coreset).
	Screened    int    `json:"screened"`
	ResumedFrom string `json:"resumed_from,omitempty"`
	// LoadMS and DiscoverMS are the attempt's time before the pipeline: CSV
	// load and join discovery. ElapsedMS is the pipeline alone, so these two
	// explain most of finished_at − started_at − elapsed_ms.
	LoadMS      int64 `json:"load_ms"`
	DiscoverMS  int64 `json:"discover_ms"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	SelectionMS int64 `json:"selection_ms"`
}

// Record is one run's persisted document: the spec plus lifecycle state.
// It is rewritten crash-safely on every transition, only ever by the process
// holding the run's lease, under the fence token recorded here.
type Record struct {
	ID   string `json:"id"`
	Seq  int64  `json:"seq"`
	Spec Spec   `json:"spec"`
	// Tenant is the resolved admission lane (spec tenant or the daemon
	// default).
	Tenant      string     `json:"tenant,omitempty"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Attempts    int        `json:"attempts"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at,omitempty"`
	FinishedAt  time.Time  `json:"finished_at,omitempty"`
	Result      *RunResult `json:"result,omitempty"`
	// Fence is the monotonic fencing token of the current owner's lease
	// acquisition; every takeover persists a strictly larger one.
	Fence int64 `json:"fence,omitempty"`
	// Takeovers counts ownership changes (informational).
	Takeovers int `json:"takeovers,omitempty"`
}

// Config configures a Manager.
type Config struct {
	// StateDir is the daemon's durable root: runs/<id>/ record + result +
	// trace + lease, checkpoints/<id>/ pipeline checkpoints. Required.
	// Several processes may share one StateDir.
	StateDir string
	// DataDir is the default CSV corpus for specs that do not name one.
	DataDir string
	// QueueCap bounds the waiting queue globally; <= 0 means 16.
	QueueCap int
	// Concurrency is the number of runs executing at once; <= 0 means 2.
	// Concurrent runs share the process-wide worker pool.
	Concurrency int
	// Workers caps the shared worker pool for every run; 0 keeps the current
	// cap. Results are bit-identical at any value.
	Workers int
	// RunTimeout is the default per-run wall-clock budget for specs without
	// their own; 0 leaves runs unbounded.
	RunTimeout time.Duration
	// RetryAttempts/RetryBase/RetryMax shape the transient-failure retry of a
	// run (capped exponential backoff); zero values mean 3 attempts, 100ms
	// base, 2s cap.
	RetryAttempts int
	RetryBase     time.Duration
	RetryMax      time.Duration
	// CheckpointTTL, when > 0, prunes per-run checkpoint directories whose
	// last write is older than this at Open (checkpoint.Prune). Directories
	// whose run holds a live lease are never pruned.
	CheckpointTTL time.Duration
	// DefaultTenant is the admission lane for specs that name no tenant;
	// empty means "default".
	DefaultTenant string
	// TenantQueueCap bounds each tenant lane's waiting runs; <= 0 applies
	// QueueCap (i.e. only the global bound).
	TenantQueueCap int
	// TenantMaxInFlight caps each tenant's concurrently executing runs;
	// <= 0 means unlimited (bounded only by Concurrency).
	TenantMaxInFlight int
	// DRRQuantum is the deficit-round-robin quantum: how many runs one lane
	// may dispatch per visit before the scheduler moves on; <= 0 means 1.
	// It bounds how long a backlogged lane can hold the dispatcher, and
	// therefore any other lane's queue wait, to quantum runs per competitor.
	DRRQuantum int
	// LeaseTTL is the validity window of a run's ownership lease: renewed by
	// a heartbeat at TTL/3, and the longest a run orphaned by a dead process
	// on another host waits for the reaper (which scans at TTL/2) to adopt
	// it. <= 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Owner overrides this manager's lease identity (tests); empty derives a
	// process-unique one.
	Owner string
	// Injector fires deterministic faults at the server's admission,
	// persistence, and lease-renewal sites and inside every run's pipeline —
	// the chaos hook.
	Injector *faults.Injector
	// Trace receives the queue's metrics (counters, gauges, wait/run
	// histograms). Typically the daemon's long-lived trace; nil disables.
	Trace *obs.Trace
	// Logf receives operational progress lines.
	Logf func(format string, args ...any)
}

// DefaultLeaseTTL is the lease TTL of a Config that sets none, and the
// default of ardad's -lease-ttl flag.
const DefaultLeaseTTL = 10 * time.Second

// run is the in-memory view of one run.
type run struct {
	rec    Record
	tenant string
	// cancel interrupts the executing pipeline; non-nil only while running.
	cancel func()
	// claimed is set (under the manager lock) the instant a supervisor pops
	// the run off its lane, closing the window where Cancel could see a
	// "queued" run that no supervisor will ever observe as canceled.
	claimed bool
	// userCanceled / drainPreempted disambiguate why the context died:
	// a user cancel terminates the run, a drain preemption requeues it.
	userCanceled   bool
	drainPreempted bool
	// lease is this process's ownership of the run; nil once released
	// (terminal, or handed off by a drain).
	lease *lease.Lease
	// leaseLost marks a run fenced out of this process's custody: another
	// owner holds it now, so this process must not write its state again.
	// Set (and counted into lease.lost) exactly once.
	leaseLost bool
	// stream is the live event bus of the current execution attempt (nil
	// before the run first starts). It survives past completion so late
	// subscribers replay the final attempt's events.
	stream *obs.StreamSink
}

// Manager owns the lanes, the supervisors, and the state directory.
type Manager struct {
	cfg     Config
	tr      *obs.Trace
	owner   string
	quantum int

	gDepth, gRunning                    *obs.Gauge
	cAdmitted                           *obs.Counter
	cCompleted, cFailed, cCanceled      *obs.Counter
	cRejectedFull, cRejectedDraining    *obs.Counter
	cRejectedTenant                     *obs.Counter
	cRetried, cPruned, cPersistFailures *obs.Counter
	cDiscarded                          *obs.Counter
	cTakeovers, cLost                   *obs.Counter
	cLeaseAcquired, cLeaseRenewals      *obs.Counter
	gLeasesHeld                         *obs.Gauge
	hWait, hRun                         *obs.Histogram

	mu       sync.Mutex
	cond     *sync.Cond
	runs     map[string]*run
	lanes    map[string]*lane
	order    []string // lane visit order (creation order)
	cursor   int      // DRR position in order
	nextSeq  int64
	running  int
	draining bool
	closed   bool
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open loads (or initializes) the state directory, adopts every orphaned run
// (left non-terminal by a dead or drained process; live peers' runs are left
// alone), prunes stale checkpoint directories per Config.CheckpointTTL, and
// starts the supervisors, the heartbeat and the reaper. The returned manager
// is accepting submissions; stop it with Close.
func Open(cfg Config) (*Manager, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("runqueue: Config.StateDir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	if !validTenant(cfg.DefaultTenant) {
		return nil, fmt.Errorf("runqueue: bad Config.DefaultTenant %q", cfg.DefaultTenant)
	}
	if cfg.DRRQuantum <= 0 {
		cfg.DRRQuantum = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "runs"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "checkpoints"), 0o755); err != nil {
		return nil, err
	}
	if cfg.Workers > 0 {
		parallel.SetMaxWorkers(cfg.Workers)
	}
	tr := cfg.Trace
	if tr == nil {
		// Counters back the exact-accounting contract, so the queue keeps
		// its own sink-less trace when the daemon does not supply one.
		tr = obs.New("runqueue")
	}
	m := &Manager{
		cfg:               cfg,
		owner:             cfg.Owner,
		quantum:           cfg.DRRQuantum,
		gDepth:            tr.Gauge("queue.depth"),
		gRunning:          tr.Gauge("queue.running"),
		cAdmitted:         tr.Counter("queue.admitted"),
		cCompleted:        tr.Counter("queue.completed"),
		cFailed:           tr.Counter("queue.failed"),
		cCanceled:         tr.Counter("queue.canceled"),
		cRejectedFull:     tr.Counter("queue.rejected_full"),
		cRejectedDraining: tr.Counter("queue.rejected_draining"),
		cRejectedTenant:   tr.Counter("queue.rejected_tenant"),
		cRetried:          tr.Counter("queue.run_retries"),
		cPruned:           tr.Counter("queue.checkpoints_pruned"),
		cPersistFailures:  tr.Counter("queue.persist_failures"),
		cDiscarded:        tr.Counter("queue.checkpoints_discarded"),
		cTakeovers:        tr.Counter("lease.takeovers"),
		cLost:             tr.Counter("lease.lost"),
		cLeaseAcquired:    tr.Counter("lease.acquired"),
		cLeaseRenewals:    tr.Counter("lease.renewals"),
		gLeasesHeld:       tr.Gauge("lease.held"),
		hWait:             tr.Histogram("queue.wait"),
		hRun:              tr.Histogram("queue.run"),
		runs:              make(map[string]*run),
		lanes:             make(map[string]*lane),
		stopCh:            make(chan struct{}),
	}
	if m.owner == "" {
		m.owner = lease.DefaultOwner()
	}
	m.cond = sync.NewCond(&m.mu)
	m.tr = tr
	// Pre-register the default lane so /metrics exposes the arda_tenant_*
	// family from the first scrape, before any submission.
	m.laneForLocked(cfg.DefaultTenant)
	if err := m.recover(); err != nil {
		return nil, err
	}
	// Adopt whatever a dead process (possibly our own previous incarnation)
	// left orphaned before supervisors start.
	m.reapOnce()
	// The prune skip hook protects any run directory holding a live lease:
	// a slow-but-alive run on a peer process keeps its resume state even
	// when its checkpoint mtimes exceed the TTL.
	skip := func(rel string) bool {
		if rel == "" {
			return false
		}
		return lease.Live(filepath.Join(cfg.StateDir, "runs", rel, lease.FileName))
	}
	if pruned, err := checkpoint.Prune(filepath.Join(cfg.StateDir, "checkpoints"), cfg.CheckpointTTL, 0, skip); err != nil {
		m.logf("checkpoint prune: %v", err)
	} else if len(pruned) > 0 {
		m.cPruned.Add(int64(len(pruned)))
		m.logf("pruned %d stale checkpoint directories", len(pruned))
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.wg.Add(1)
		go m.supervise()
	}
	m.wg.Add(2)
	go m.heartbeats()
	go m.reaper()
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// runDir / ckDir / leasePath locate one run's durable artifacts.
func (m *Manager) runDir(id string) string {
	return filepath.Join(m.cfg.StateDir, "runs", id)
}

func (m *Manager) ckDir(id string) string {
	return filepath.Join(m.cfg.StateDir, "checkpoints", id)
}

func (m *Manager) leasePath(id string) string {
	return filepath.Join(m.runDir(id), lease.FileName)
}

// Get returns a snapshot of one run's record. An executed run's terminal
// state is reported only once it is on disk (finishRun publishes after
// persisting). A run this process does not hold (a peer's, an earlier
// process's, or one fenced away from us) is answered from its on-disk
// record, so any daemon over the shared state dir can answer for any run.
func (m *Manager) Get(id string) (Record, error) {
	m.mu.Lock()
	r, ok := m.runs[id]
	if ok && !r.leaseLost {
		rec := r.rec
		m.mu.Unlock()
		return rec, nil
	}
	m.mu.Unlock()
	return m.readRecord(id)
}

// List returns snapshots of every known run in admission order: the runs
// this process holds, merged with the on-disk records of all the others.
func (m *Manager) List() []Record {
	m.mu.Lock()
	recs := make(map[string]Record, len(m.runs))
	for id, r := range m.runs {
		if !r.leaseLost {
			recs[id] = r.rec
		}
	}
	m.mu.Unlock()
	entries, err := os.ReadDir(filepath.Join(m.cfg.StateDir, "runs"))
	if err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if _, ok := recs[e.Name()]; ok {
				continue
			}
			if rec, err := m.readRecord(e.Name()); err == nil {
				recs[e.Name()] = rec
			}
		}
	}
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Cancel terminates one run: a queued run is removed from its lane and
// marked canceled immediately; a running run's context is canceled and the
// supervisor marks it canceled when the pipeline stops (promptly, at the
// next stage boundary). Canceling a terminal run is a no-op. A live run
// owned by a peer process returns ErrNotOwned — cancel it through its
// owner.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	r, ok := m.runs[id]
	if !ok || r.leaseLost {
		m.mu.Unlock()
		rec, err := m.readRecord(id)
		if err != nil {
			return Record{}, err
		}
		if rec.State.Terminal() {
			return rec, nil
		}
		return rec, ErrNotOwned
	}
	switch {
	case r.rec.State == StateQueued && r.claimed:
		// A supervisor already popped the run and is about to execute it:
		// treat it as running so the cancellation reaches the pipeline
		// context instead of racing the queued→running transition.
		r.userCanceled = true
		if r.cancel != nil {
			r.cancel()
		}
		rec := r.rec
		m.mu.Unlock()
		return rec, nil
	case r.rec.State == StateQueued:
		m.removeFromLaneLocked(r)
		r.rec.State = StateCanceled
		r.rec.Error = "canceled while queued"
		r.rec.FinishedAt = time.Now()
		m.cCanceled.Add(1)
		lse := r.lease
		rec := r.rec
		m.mu.Unlock()
		if err := m.persist(r); err != nil {
			m.logf("persisting canceled %s: %v", id, err)
		}
		if lse != nil {
			lse.Release()
			m.mu.Lock()
			r.lease = nil
			m.updateLeaseGaugeLocked()
			m.mu.Unlock()
		}
		return rec, nil
	case r.rec.State == StateRunning:
		r.userCanceled = true
		if r.cancel != nil {
			r.cancel()
		}
		rec := r.rec
		m.mu.Unlock()
		return rec, nil
	default:
		rec := r.rec
		m.mu.Unlock()
		return rec, nil
	}
}

// Stream returns the live event bus of the run's current (or last) execution
// attempt and the path of its persisted NDJSON trace. The stream is nil for
// a run that has not started in this process; the trace file exists whenever
// an attempt ran to a flush (including interrupted attempts).
func (m *Manager) Stream(id string) (*obs.StreamSink, string, error) {
	m.mu.Lock()
	r, ok := m.runs[id]
	var stream *obs.StreamSink
	if ok {
		stream = r.stream
	}
	m.mu.Unlock()
	if !ok {
		// Not held here: no live stream, but the persisted trace may exist
		// (the caller stats it).
		if _, err := m.readRecord(id); err != nil {
			return nil, "", err
		}
	}
	return stream, filepath.Join(m.runDir(id), "trace.ndjson"), nil
}

// TablePath returns the augmented table written for a completed keep_table
// run.
func (m *Manager) TablePath(id string) string {
	return filepath.Join(m.runDir(id), "table.csv")
}

// LaneAccounting is one tenant lane's live occupancy and counters.
type LaneAccounting struct {
	Tenant             string
	Queued, Running    int64
	Admitted, Rejected int64
}

// Accounting is the queue's exact bookkeeping snapshot.
type Accounting struct {
	Admitted, Takeovers               int64
	Completed, Failed, Canceled, Lost int64
	RejectedFull, RejectedDraining    int64
	RejectedTenant                    int64
	Queued, Running                   int64
	LeasesHeld, LeaseRenewals         int64
	Lanes                             []LaneAccounting
}

// Accounting returns the current counters plus live queue occupancy. In
// every snapshot
//
//	Admitted + Takeovers ==
//	    Completed + Failed + Canceled + Queued + Running + Lost
//
// holds exactly: a run's state and the counter that books it change in one
// critical section of the lock this snapshot is taken under. (Taken-over
// runs are re-admissions of earlier admits, counted once per process that
// queued them; lost runs left this process's custody when their lease was
// stolen and are owned — and counted — by their new owner.)
func (m *Manager) Accounting() Accounting {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Queued and Running are counted from run states, not lane lengths or
	// supervisor slots: a drain-preempted or drain-admitted run is in the
	// queued state (persisted for the next process) but in none of this
	// process's lanes, and a finished run's supervisor holds its slot a little
	// longer (checkpoint discard, lease release). Runs fenced out of our
	// custody are excluded — their new owner counts them.
	var queued, running int64
	for _, r := range m.runs {
		switch {
		case r.leaseLost:
		case r.rec.State == StateQueued:
			queued++
		case r.rec.State == StateRunning:
			running++
		}
	}
	a := Accounting{
		Admitted:         m.cAdmitted.Value(),
		Takeovers:        m.cTakeovers.Value(),
		Completed:        m.cCompleted.Value(),
		Failed:           m.cFailed.Value(),
		Canceled:         m.cCanceled.Value(),
		Lost:             m.cLost.Value(),
		RejectedFull:     m.cRejectedFull.Value(),
		RejectedDraining: m.cRejectedDraining.Value(),
		RejectedTenant:   m.cRejectedTenant.Value(),
		Queued:           queued,
		Running:          running,
		LeasesHeld:       m.gLeasesHeld.Value(),
		LeaseRenewals:    m.cLeaseRenewals.Value(),
	}
	for _, name := range m.order {
		l := m.lanes[name]
		a.Lanes = append(a.Lanes, LaneAccounting{
			Tenant:   name,
			Queued:   int64(len(l.fifo)),
			Running:  int64(l.running),
			Admitted: l.cAdmitted.Value(),
			Rejected: l.cRejected.Value(),
		})
	}
	sort.Slice(a.Lanes, func(i, j int) bool { return a.Lanes[i].Tenant < a.Lanes[j].Tenant })
	return a
}

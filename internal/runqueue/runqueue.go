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
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/retry"
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

// TenantLimitError reports a submission rejected by a per-tenant admission
// bound (queue cap or lane-table capacity); the HTTP layer maps it to 429
// with the tenant named in the body.
type TenantLimitError struct {
	Tenant string
	Reason string
}

// Error implements the error interface.
func (e *TenantLimitError) Error() string {
	return fmt.Sprintf("runqueue: tenant %q: %s", e.Tenant, e.Reason)
}

// maxLanes bounds the tenant-lane table so adversarial tenant-name floods
// cannot grow manager memory without bound.
const maxLanes = 256

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
	Degraded    int      `json:"degraded"`
	ResumedFrom string   `json:"resumed_from,omitempty"`
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
	// MaxCells / MaxCandidateBytes are default resource budgets for specs
	// without their own; 0 leaves them unbounded.
	MaxCells          int64
	MaxCandidateBytes int64
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

// persistRetry is the backoff for crash-safe record writes: short, capped,
// and bounded — a persistence failure that survives it fails the transition.
var persistRetry = retry.Policy{Attempts: 3, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

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

// lane is one tenant's admission queue plus its DRR dispatch state.
type lane struct {
	name string
	fifo []*run
	// credit is the lane's remaining deficit-round-robin allowance in the
	// current visit; refilled to the quantum when the scheduler arrives with
	// work, zeroed when the lane empties or is skipped.
	credit int
	// running counts the lane's executing runs (the TenantMaxInFlight gate).
	running int

	gDepth, gRunning     *obs.Gauge
	cAdmitted, cRejected *obs.Counter
	hWait                *obs.Histogram
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

// validTenant reports whether s is an acceptable tenant-lane name: 1–32
// characters of [a-z0-9_-], starting alphanumeric. The charset keeps metric
// names (tenant.<name>.admitted) and the HTTP surface unambiguous.
func validTenant(s string) bool {
	if len(s) == 0 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-'
		if !ok || (i == 0 && (c == '_' || c == '-')) {
			return false
		}
	}
	return true
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

// resolveTenant returns the admission lane for a spec.
func (m *Manager) resolveTenant(spec Spec) string {
	if spec.Tenant != "" {
		return spec.Tenant
	}
	return m.cfg.DefaultTenant
}

// laneForLocked returns (creating on first use) the named tenant lane with
// its metric instruments registered. Callers must hold m.mu — except during
// Open, before any goroutine exists.
func (m *Manager) laneForLocked(name string) *lane {
	if l, ok := m.lanes[name]; ok {
		return l
	}
	l := &lane{
		name:      name,
		gDepth:    m.tr.Gauge("tenant." + name + ".depth"),
		gRunning:  m.tr.Gauge("tenant." + name + ".running"),
		cAdmitted: m.tr.Counter("tenant." + name + ".admitted"),
		cRejected: m.tr.Counter("tenant." + name + ".rejected"),
		hWait:     m.tr.Histogram("tenant." + name + ".wait"),
	}
	m.lanes[name] = l
	m.order = append(m.order, name)
	return l
}

// totalQueuedLocked is the global waiting-run count across lanes.
func (m *Manager) totalQueuedLocked() int {
	n := 0
	for _, l := range m.lanes {
		n += len(l.fifo)
	}
	return n
}

// enqueueLocked appends a run to its tenant lane and refreshes the gauges.
func (m *Manager) enqueueLocked(r *run) {
	l := m.laneForLocked(r.tenant)
	l.fifo = append(l.fifo, r)
	l.gDepth.Set(int64(len(l.fifo)))
	m.gDepth.Set(int64(m.totalQueuedLocked()))
}

// removeFromLaneLocked takes a queued run out of its lane (cancel, lease
// loss); returns whether it was present.
func (m *Manager) removeFromLaneLocked(r *run) bool {
	l, ok := m.lanes[r.tenant]
	if !ok {
		return false
	}
	for i, q := range l.fifo {
		if q == r {
			l.fifo = append(l.fifo[:i], l.fifo[i+1:]...)
			l.gDepth.Set(int64(len(l.fifo)))
			m.gDepth.Set(int64(m.totalQueuedLocked()))
			return true
		}
	}
	return false
}

// nextLocked is the deficit-round-robin dispatcher: visit lanes in creation
// order from the cursor; a lane with dispatchable work (non-empty, under its
// in-flight quota) refills its credit to the quantum when exhausted and
// yields its FIFO head; a lane with nothing dispatchable forfeits its credit
// and is skipped. The cursor advances when a lane's credit (or backlog) runs
// out, so no lane holds the dispatcher for more than quantum consecutive
// runs while others wait — which bounds any tenant's queue delay under a
// competing flood to quantum runs per backlogged competitor.
func (m *Manager) nextLocked() *run {
	for scanned := 0; scanned < len(m.order); {
		if m.cursor >= len(m.order) {
			m.cursor = 0
		}
		l := m.lanes[m.order[m.cursor]]
		blocked := m.cfg.TenantMaxInFlight > 0 && l.running >= m.cfg.TenantMaxInFlight
		if len(l.fifo) == 0 || blocked {
			l.credit = 0
			m.cursor++
			scanned++
			continue
		}
		if l.credit <= 0 {
			l.credit = m.quantum
		}
		r := l.fifo[0]
		l.fifo = l.fifo[1:]
		l.credit--
		if l.credit <= 0 || len(l.fifo) == 0 {
			if len(l.fifo) == 0 {
				l.credit = 0
			}
			m.cursor++
		}
		l.gDepth.Set(int64(len(l.fifo)))
		m.gDepth.Set(int64(m.totalQueuedLocked()))
		return r
	}
	return nil
}

// updateLeaseGaugeLocked recounts held leases.
func (m *Manager) updateLeaseGaugeLocked() {
	var n int64
	for _, r := range m.runs {
		if r.lease != nil && !r.leaseLost {
			n++
		}
	}
	m.gLeasesHeld.Set(n)
}

// parseSeq extracts the numeric sequence from a run-directory name (r%06d).
func parseSeq(name string) (int64, bool) {
	if len(name) < 2 || name[0] != 'r' {
		return 0, false
	}
	n, err := strconv.ParseInt(name[1:], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// recover advances nextSeq past every existing run directory. It adopts
// nothing: a non-terminal record here may be live on a peer, so adoption of
// orphaned runs is the reaper's job (reapOnce).
func (m *Manager) recover() error {
	entries, err := os.ReadDir(filepath.Join(m.cfg.StateDir, "runs"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name()); ok && seq >= m.nextSeq {
			m.nextSeq = seq + 1
		}
	}
	return nil
}

// recordTenant resolves a persisted record's lane: the recorded one if
// present (admission stamped it), else re-resolved from the spec.
func (m *Manager) recordTenant(rec Record) string {
	if rec.Tenant != "" && validTenant(rec.Tenant) {
		return rec.Tenant
	}
	return m.resolveTenant(rec.Spec)
}

// persist writes the run's record crash-safely, retrying transient
// persistence faults with capped backoff. The faults.SiteServerPersist site
// is probed on every attempt so the chaos suite can fire deterministic
// persistence failures. The write is fenced: the run's lease is re-verified
// immediately before it, and a lost lease aborts with lease.ErrLeaseLost,
// leaving the new owner's on-disk state untouched. (A run whose lease this
// process already released — handed off by a drain — is written unfenced.)
func (m *Manager) persist(r *run) error {
	m.mu.Lock()
	rec := r.rec
	lse := r.lease
	m.mu.Unlock()
	return m.persistRecord(rec, lse)
}

// persistRecord is persist for a record value that is not (yet) the run's
// in-memory one: finishRun writes a terminal record through it before
// publishing that record to readers.
func (m *Manager) persistRecord(rec Record, lse *lease.Lease) error {
	if lse != nil {
		if err := lse.Check(); err != nil {
			return err
		}
	}
	body, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	dir := m.runDir(rec.ID) // exists: claimed at admission (allocSeqLocked)
	err = retry.Do(nil, persistRetry, faults.IsTransient, func() error {
		if err := m.cfg.Injector.Check(faults.SiteServerPersist, int(rec.Seq)); err != nil {
			return err
		}
		return atomicio.WriteFileBytes(filepath.Join(dir, "run.json"), body)
	})
	if err != nil {
		m.cPersistFailures.Add(1)
	}
	return err
}

// allocSeqLocked claims the next run sequence. The claim is the atomic
// creation of the run directory itself — exactly one process sharing the
// state dir wins each number; losers advance and retry — so concurrent
// daemons partition the ID space without coordination.
func (m *Manager) allocSeqLocked() (int64, string, error) {
	for {
		seq := m.nextSeq
		m.nextSeq++
		id := fmt.Sprintf("r%06d", seq)
		err := os.Mkdir(m.runDir(id), 0o755)
		if err == nil {
			return seq, id, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return 0, "", err
		}
		// A peer claimed this number; keep walking.
	}
}

// Submit validates and admits one run: the record is persisted, under a
// freshly acquired ownership lease, before the submission is acknowledged,
// so an accepted run survives any crash. Admission failures
// are typed: ErrQueueFull (global bound), *TenantLimitError (lane bound),
// ErrDraining (manager shutting down), spec validation errors, and injected
// admission faults.
func (m *Manager) Submit(spec Spec) (Record, error) {
	if err := spec.Validate(); err != nil {
		return Record{}, err
	}
	if spec.Dir == "" && m.cfg.DataDir == "" {
		return Record{}, fmt.Errorf("runqueue: spec.dir is required (daemon has no default data directory)")
	}
	tenant := m.resolveTenant(spec)

	m.mu.Lock()
	if m.draining || m.closed {
		m.cRejectedDraining.Add(1)
		m.mu.Unlock()
		return Record{}, ErrDraining
	}
	if m.totalQueuedLocked() >= m.cfg.QueueCap {
		m.cRejectedFull.Add(1)
		m.mu.Unlock()
		return Record{}, ErrQueueFull
	}
	if _, ok := m.lanes[tenant]; !ok && len(m.lanes) >= maxLanes {
		m.cRejectedTenant.Add(1)
		m.mu.Unlock()
		return Record{}, &TenantLimitError{Tenant: tenant, Reason: fmt.Sprintf("tenant-lane table full (%d lanes)", maxLanes)}
	}
	l := m.laneForLocked(tenant)
	laneCap := m.cfg.TenantQueueCap
	if laneCap <= 0 {
		laneCap = m.cfg.QueueCap
	}
	if len(l.fifo) >= laneCap {
		l.cRejected.Add(1)
		m.cRejectedTenant.Add(1)
		m.mu.Unlock()
		return Record{}, &TenantLimitError{Tenant: tenant, Reason: fmt.Sprintf("tenant queue at capacity (%d)", laneCap)}
	}
	seq, id, err := m.allocSeqLocked()
	m.mu.Unlock()
	if err != nil {
		return Record{}, err
	}
	// Best-effort removal of a run directory claimed but never persisted
	// (admission failed below): an empty directory is harmless to every
	// scanner, this just keeps the tree tidy.
	abandonDir := func() {
		os.Remove(m.leasePath(id))
		os.Remove(m.runDir(id))
	}

	// The admission fault site runs outside the lock: Delay-kind faults
	// sleep, and a sleeping admission must not stall the whole queue.
	if err := m.cfg.Injector.Check(faults.SiteServerAdmit, int(seq)); err != nil {
		abandonDir()
		return Record{}, fmt.Errorf("runqueue: admission: %w", err)
	}

	r := &run{
		rec: Record{
			ID:          id,
			Seq:         seq,
			Spec:        spec,
			Tenant:      tenant,
			State:       StateQueued,
			SubmittedAt: time.Now(),
		},
		tenant: tenant,
	}
	lse, err := lease.Acquire(m.leasePath(id), lease.Options{
		RunID: id, Owner: m.owner, Token: 1, TTL: m.cfg.LeaseTTL,
		Injector: m.cfg.Injector, Ordinal: int(seq),
	})
	if err != nil {
		abandonDir()
		return Record{}, fmt.Errorf("runqueue: leasing %s: %w", id, err)
	}
	r.lease = lse
	r.rec.Fence = lse.Token()
	m.cLeaseAcquired.Add(1)
	if err := m.persist(r); err != nil {
		lse.Release()
		abandonDir()
		return Record{}, fmt.Errorf("runqueue: persisting admission: %w", err)
	}

	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return m.admitDuringDrain(r)
	}
	if m.totalQueuedLocked() >= m.cfg.QueueCap {
		m.mu.Unlock()
		return m.rejectPersisted(r, ErrQueueFull, "rejected: queue filled during admission")
	}
	if len(l.fifo) >= laneCap {
		m.mu.Unlock()
		return m.rejectPersisted(r, &TenantLimitError{Tenant: tenant, Reason: fmt.Sprintf("tenant queue filled during admission (%d)", laneCap)}, "rejected: tenant queue filled during admission")
	}
	m.runs[id] = r
	m.enqueueLocked(r)
	depth := m.totalQueuedLocked()
	m.cAdmitted.Add(1)
	l.cAdmitted.Add(1)
	m.updateLeaseGaugeLocked()
	rec := r.rec
	m.cond.Broadcast()
	m.mu.Unlock()
	m.logf("admitted %s (%s/%s) tenant %s, queue depth %d", rec.ID, rec.Spec.Base, rec.Spec.Target, tenant, depth)
	return rec, nil
}

// admitDuringDrain resolves the admission/drain race for a run already
// persisted when the drain was observed. The run is ACCEPTED: its record is
// durable and its lease is released, which is precisely the hand-off
// contract — a peer's reaper (or the next process over this state dir)
// adopts it. The draining process never forgets a persisted record.
func (m *Manager) admitDuringDrain(r *run) (Record, error) {
	if err := r.lease.Release(); err != nil {
		m.logf("releasing drain-raced %s: %v", r.rec.ID, err)
	}
	m.mu.Lock()
	r.lease = nil
	m.runs[r.rec.ID] = r
	m.cAdmitted.Add(1)
	m.laneForLocked(r.tenant).cAdmitted.Add(1)
	rec := r.rec
	m.mu.Unlock()
	m.logf("admitted %s during drain: lease released for hand-off to a peer", rec.ID)
	return rec, nil
}

// rejectPersisted terminal-izes a persisted-but-not-enqueued run (capacity
// filled during admission) so a restart does not resurrect it, and returns
// the typed rejection.
func (m *Manager) rejectPersisted(r *run, rejection error, reason string) (Record, error) {
	m.mu.Lock()
	r.rec.State = StateCanceled
	r.rec.Error = reason
	r.rec.FinishedAt = time.Now()
	lse := r.lease
	m.mu.Unlock()
	if err := m.persist(r); err != nil {
		m.logf("persisting overflow-raced %s: %v", r.rec.ID, err)
	}
	lse.Release()
	m.mu.Lock()
	r.lease = nil
	m.mu.Unlock()
	if errors.Is(rejection, ErrQueueFull) {
		m.cRejectedFull.Add(1)
	} else {
		m.cRejectedTenant.Add(1)
	}
	return Record{}, rejection
}

// readRecord loads one run's persisted record from disk — how a manager
// answers for runs it does not hold (a peer's, or an earlier process's). It
// never takes m.mu. The id is validated as a plain run-directory name so
// HTTP path values cannot traverse.
func (m *Manager) readRecord(id string) (Record, error) {
	if _, ok := parseSeq(id); !ok || id != filepath.Base(id) {
		return Record{}, ErrNotFound
	}
	raw, err := os.ReadFile(filepath.Join(m.runDir(id), "run.json"))
	if err != nil {
		return Record{}, ErrNotFound
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, ErrNotFound
	}
	return rec, nil
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

// Draining reports whether the manager has stopped admitting runs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining || m.closed
}

// Drain stops admission and waits up to timeout for in-flight runs to
// finish. Runs still executing at the deadline are preempted: their contexts
// are canceled, the pipeline stops at its next stage boundary (its
// checkpoint already holds every completed stage), and the run returns to
// the queued state so the next owner resumes it. Queued runs stay queued on
// disk and their leases are released immediately, so a live peer adopts them
// without waiting for this process to exit. Drain returns once no run is
// executing; it is idempotent.
func (m *Manager) Drain(timeout time.Duration) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	// Hand queued runs off right away: they are persisted, no local
	// supervisor will ever claim them, and a freed lease is the signal peers
	// adopt on.
	type handoff struct {
		id  string
		lse *lease.Lease
	}
	var handoffs []handoff
	for _, r := range m.runs {
		if r.rec.State == StateQueued && !r.claimed && r.lease != nil && !r.leaseLost {
			handoffs = append(handoffs, handoff{r.rec.ID, r.lease})
			r.lease = nil
		}
	}
	m.updateLeaseGaugeLocked()
	m.mu.Unlock()
	for _, h := range handoffs {
		if err := h.lse.Release(); err != nil {
			m.logf("releasing %s for hand-off: %v", h.id, err)
		} else {
			m.logf("drain: released lease of queued %s for hand-off", h.id)
		}
	}
	m.logf("draining: admission closed, waiting up to %s for in-flight runs", timeout)

	if m.waitIdle(time.Now().Add(timeout)) == 0 {
		return nil
	}

	// Deadline passed: preempt. The pipeline checkpoints at every stage
	// boundary, so cancellation loses at most the in-progress stage.
	m.mu.Lock()
	for _, r := range m.runs {
		if r.rec.State == StateRunning && r.cancel != nil {
			r.drainPreempted = true
			r.cancel()
		}
	}
	m.mu.Unlock()
	m.logf("drain deadline passed: preempting in-flight runs at their next stage boundary")

	// Preempted pipelines return promptly; bound the wait defensively so a
	// wedged run cannot hang shutdown forever.
	if n := m.waitIdle(time.Now().Add(timeout + 10*time.Second)); n > 0 {
		return fmt.Errorf("runqueue: %d runs still executing after drain preemption", n)
	}
	return nil
}

// waitIdle polls until no supervisor is executing a run or the deadline
// passes, and returns how many still are.
func (m *Manager) waitIdle(deadline time.Time) int {
	for {
		m.mu.Lock()
		n := m.running
		m.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close drains (with the given timeout) and stops the supervisors, the
// heartbeat, and the reaper. After Close returns, no manager goroutine is
// left running.
func (m *Manager) Close(drainTimeout time.Duration) error {
	err := m.Drain(drainTimeout)
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
	return err
}

// supervise is one supervisor loop: claim the next DRR-dispatched run,
// execute, repeat, until the manager drains or closes.
func (m *Manager) supervise() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var r *run
		for {
			if m.closed || m.draining {
				m.mu.Unlock()
				return
			}
			if r = m.nextLocked(); r != nil {
				break
			}
			m.cond.Wait()
		}
		r.claimed = true
		l := m.laneForLocked(r.tenant)
		l.running++
		l.gRunning.Set(int64(l.running))
		m.running++
		m.gRunning.Set(int64(m.running))
		m.mu.Unlock()

		m.execute(r)

		m.mu.Lock()
		m.running--
		m.gRunning.Set(int64(m.running))
		l.running--
		l.gRunning.Set(int64(l.running))
		// An in-flight quota slot freed: wake dispatchers that skipped this
		// lane while it was at its cap.
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// heartbeats renews every held lease at TTL/3 — one loop for all runs, so a
// manager holds O(1) timers regardless of load. A renewal observing loss
// fences the run out of our custody (markLost); other renewal errors are
// logged and retried next tick, with the TTL as the real deadline.
func (m *Manager) heartbeats() {
	defer m.wg.Done()
	interval := m.cfg.LeaseTTL / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
		}
		type held struct {
			r   *run
			lse *lease.Lease
		}
		m.mu.Lock()
		var list []held
		for _, r := range m.runs {
			if r.lease != nil && !r.leaseLost && !r.rec.State.Terminal() {
				list = append(list, held{r, r.lease})
			}
		}
		m.mu.Unlock()
		for _, h := range list {
			err := h.lse.Renew()
			switch {
			case err == nil:
				m.cLeaseRenewals.Add(1)
			case errors.Is(err, lease.ErrLeaseLost):
				m.markLost(h.r)
			default:
				m.logf("renewing lease of %s: %v", h.r.rec.ID, err)
			}
		}
	}
}

// markLost fences a run out of this process's custody, exactly once: the
// queued copy leaves its lane, the running copy's pipeline is canceled (it
// observes lease.ErrLeaseLost semantics at its next boundary and abandons),
// and the lease.lost counter takes the run out of our accounting partition —
// its new owner counts it from here on.
func (m *Manager) markLost(r *run) {
	m.mu.Lock()
	if r.leaseLost || r.rec.State.Terminal() || r.lease == nil {
		m.mu.Unlock()
		return
	}
	r.leaseLost = true
	cancel := r.cancel
	if r.rec.State == StateQueued && !r.claimed {
		m.removeFromLaneLocked(r)
	}
	m.cLost.Add(1)
	m.updateLeaseGaugeLocked()
	id, fence := r.rec.ID, r.rec.Fence
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.logf("lease lost for %s (had fence %d): fenced out, abandoning to the new owner", id, fence)
}

// reaper periodically adopts orphaned runs (reapOnce) at TTL/2.
func (m *Manager) reaper() {
	defer m.wg.Done()
	interval := m.cfg.LeaseTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			m.reapOnce()
		}
	}
}

// reapOnce scans the shared runs directory for non-terminal records whose
// lease is orphaned — released, expired, or held by a dead process on this
// host — and adopts each: acquire the lease under a strictly larger fencing
// token, persist the record back to queued under the new fence, and enqueue
// it locally. Exactly one contender wins each adoption (the lease acquire is
// atomic); losers skip. The old owner, if it still breathes anywhere, is
// fenced: its next heartbeat or state write observes the newer token and
// abandons.
func (m *Manager) reapOnce() {
	root := filepath.Join(m.cfg.StateDir, "runs")
	entries, err := os.ReadDir(root)
	if err != nil {
		m.logf("reap: %v", err)
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		m.mu.Lock()
		if m.draining || m.closed {
			m.mu.Unlock()
			return
		}
		if r, ok := m.runs[id]; ok && !r.leaseLost {
			m.mu.Unlock()
			continue // ours (live, terminal, or handed off) — not adoptable here
		}
		m.mu.Unlock()

		rec, err := m.readRecord(id)
		if err != nil {
			continue // not yet persisted, or damaged: nothing to adopt
		}
		if rec.State.Terminal() {
			continue
		}
		lp := m.leasePath(id)
		if lease.Live(lp) {
			continue // a live peer owns it
		}
		prev, _ := lease.Read(lp) // token floor even when orphaned
		token := rec.Fence
		if prev.Token > token {
			token = prev.Token
		}
		token++
		lse, err := lease.Acquire(lp, lease.Options{
			RunID: id, Owner: m.owner, Token: token, TTL: m.cfg.LeaseTTL,
			Injector: m.cfg.Injector, Ordinal: int(rec.Seq),
		})
		if err != nil {
			continue // lost the adoption race
		}
		prevOwner := prev.Owner
		if prevOwner == "" {
			prevOwner = "(released)"
		}
		// Sweep the previous owner's orphaned in-progress trace files; it is
		// dead or fenced, and its sink (if somehow still open) keeps writing
		// harmlessly into the unlinked inode.
		if stale, err := filepath.Glob(filepath.Join(m.runDir(id), "trace.ndjson.tmp*")); err == nil {
			for _, f := range stale {
				os.Remove(f)
			}
		}
		rec.State = StateQueued
		rec.Error = ""
		rec.StartedAt = time.Time{}
		rec.Fence = token
		rec.Takeovers++
		r := &run{rec: rec, tenant: m.recordTenant(rec), lease: lse}
		if err := m.persist(r); err != nil {
			m.logf("reap: persisting takeover of %s: %v", id, err)
			lse.Release()
			continue
		}
		m.mu.Lock()
		if m.draining || m.closed {
			m.mu.Unlock()
			lse.Release()
			return
		}
		m.runs[id] = r
		m.enqueueLocked(r)
		m.cTakeovers.Add(1)
		m.cLeaseAcquired.Add(1)
		m.updateLeaseGaugeLocked()
		m.cond.Broadcast()
		m.mu.Unlock()
		m.logf("takeover %s (fence %d) from %s", id, token, prevOwner)
	}
}

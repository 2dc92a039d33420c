package runqueue

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/obs"
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

// recordTenant resolves a persisted record's lane: the recorded one if
// present (admission stamped it), else re-resolved from the spec.
func (m *Manager) recordTenant(rec Record) string {
	if rec.Tenant != "" && validTenant(rec.Tenant) {
		return rec.Tenant
	}
	return m.resolveTenant(rec.Spec)
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

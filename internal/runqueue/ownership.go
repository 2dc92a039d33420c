package runqueue

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/retry"
)

// persistRetry is the backoff for crash-safe record writes: short, capped,
// and bounded — a persistence failure that survives it fails the transition.
var persistRetry = retry.Policy{Attempts: 3, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

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
// its new owner counts it from here on. The run's stream is dropped even
// when the loss was already booked: a retry may have installed a fresh one
// after the heartbeat's call.
func (m *Manager) markLost(r *run) {
	m.mu.Lock()
	r.stream = nil
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

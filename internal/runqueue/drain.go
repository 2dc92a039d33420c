package runqueue

import (
	"fmt"
	"time"

	"github.com/arda-ml/arda/internal/lease"
)

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

package runqueue

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/testenv"
)

// failFastSpec returns a spec that is admitted fine but fails within
// milliseconds of starting (unknown base table) — the cheapest way to push
// real dispatch traffic through the lanes.
func failFastSpec(dataDir, target, tenant string) Spec {
	return Spec{Dir: dataDir, Base: "no-such-table", Target: target, Size: 64, Tenant: tenant}
}

// TestTenantFairDispatchUnderFlood floods one tenant lane and checks the
// deficit-round-robin dispatcher interleaves the other tenant's runs instead
// of draining the flood first: with quantum 1 the k-th competing run starts
// after at most 2k+1 flood runs — the DRR bound on queue wait — where a FIFO
// would start it after all of them.
func TestTenantFairDispatchUnderFlood(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)

	// The blocker (seq 0, default lane) holds the single supervisor while the
	// flood is submitted, so dispatch order is decided by the scheduler, not
	// submission timing.
	inj := faults.New(21, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: 0, Kind: faults.Delay, Delay: 500 * time.Millisecond,
	})
	m := openManager(t, Config{QueueCap: 32, Concurrency: 1, DRRQuantum: 1, Injector: inj})

	blocker, err := m.Submit(failFastSpec(dataDir, target, ""))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID, time.Minute)

	var flood, other []string
	for i := 0; i < 6; i++ {
		rec, err := m.Submit(failFastSpec(dataDir, target, "flood"))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, rec.ID)
	}
	for i := 0; i < 3; i++ {
		rec, err := m.Submit(failFastSpec(dataDir, target, "victim"))
		if err != nil {
			t.Fatal(err)
		}
		other = append(other, rec.ID)
	}
	for _, id := range append(append([]string{}, flood...), other...) {
		waitTerminal(t, m, id, time.Minute)
	}

	// Order every flood-phase run by dispatch time and find where the victim
	// tenant's runs landed.
	type started struct {
		id     string
		tenant string
		at     time.Time
	}
	var all []started
	for _, id := range append(append([]string{}, flood...), other...) {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.StartedAt.IsZero() {
			t.Fatalf("run %s has no StartedAt", id)
		}
		all = append(all, started{id, rec.Tenant, rec.StartedAt})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	k := 0
	for pos, s := range all {
		if s.tenant != "victim" {
			continue
		}
		k++
		// DRR with quantum 1 alternates lanes, so the k-th victim run starts
		// at position ≤ 2k (1-indexed); allow one slot of slack.
		if pos+1 > 2*k+1 {
			order := make([]string, len(all))
			for i, s := range all {
				order[i] = s.tenant
			}
			t.Fatalf("victim run %d dispatched at position %d (> %d): starvation; order %v", k, pos+1, 2*k+1, order)
		}
	}
	if k != 3 {
		t.Fatalf("saw %d victim runs, want 3", k)
	}

	checkAccounting(t, m)
	a := m.Accounting()
	var fl, vi LaneAccounting
	for _, l := range a.Lanes {
		switch l.Tenant {
		case "flood":
			fl = l
		case "victim":
			vi = l
		}
	}
	if fl.Admitted != 6 || vi.Admitted != 3 {
		t.Fatalf("lane accounting = flood %+v victim %+v, want 6 and 3 admitted", fl, vi)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestTenantCapsAndInFlightQuota covers the per-tenant admission bounds: the
// lane queue cap rejects with a typed *TenantLimitError, a malformed tenant
// name is rejected at validation, and TenantMaxInFlight keeps a lane's
// concurrent executions at its quota even when global concurrency has room.
func TestTenantCapsAndInFlightQuota(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)

	// Lane cap: hold the only supervisor with a blocker, then overfill one lane.
	inj := faults.New(22, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: 0, Kind: faults.Delay, Delay: 300 * time.Millisecond,
	})
	m := openManager(t, Config{QueueCap: 8, Concurrency: 1, TenantQueueCap: 1, Injector: inj})
	blocker, err := m.Submit(failFastSpec(dataDir, target, ""))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID, time.Minute)
	first, err := m.Submit(failFastSpec(dataDir, target, "acme"))
	if err != nil {
		t.Fatal(err)
	}
	var tle *TenantLimitError
	if _, err := m.Submit(failFastSpec(dataDir, target, "acme")); !errors.As(err, &tle) || tle.Tenant != "acme" {
		t.Fatalf("over-cap submit = %v, want *TenantLimitError for acme", err)
	}
	// Another tenant still has room.
	second, err := m.Submit(failFastSpec(dataDir, target, "beta"))
	if err != nil {
		t.Fatalf("other tenant rejected by acme's cap: %v", err)
	}
	if _, err := m.Submit(Spec{Dir: dataDir, Base: "x", Target: target, Tenant: "Bad Tenant!"}); err == nil {
		t.Fatal("malformed tenant name was admitted")
	}
	for _, id := range []string{blocker.ID, first.ID, second.ID} {
		waitTerminal(t, m, id, time.Minute)
	}
	checkAccounting(t, m)
	if a := m.Accounting(); a.RejectedTenant != 1 {
		t.Fatalf("accounting = %+v, want 1 rejected_tenant", a)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	// In-flight quota: two slow runs in one lane, two supervisors — the lane
	// must never have more than its quota of 1 executing.
	inj2 := faults.New(23, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: -1, Kind: faults.Delay, Delay: 150 * time.Millisecond,
	})
	m2 := openManager(t, Config{Concurrency: 2, TenantMaxInFlight: 1, Injector: inj2})
	var ids []string
	for i := 0; i < 2; i++ {
		rec, err := m2.Submit(failFastSpec(dataDir, target, "acme"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		a := m2.Accounting()
		for _, l := range a.Lanes {
			if l.Tenant == "acme" && l.Running > 1 {
				t.Fatalf("lane acme running %d, quota is 1", l.Running)
			}
		}
		done := 0
		for _, id := range ids {
			if rec, err := m2.Get(id); err == nil && rec.State.Terminal() {
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quota-gated runs never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkAccounting(t, m2)
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseSkewTakeoverBitIdentical is the clock-skew drill: manager m1's
// heartbeat is delayed past the lease TTL (a fault at lease.renew), its
// lease expires mid-run, and peer m2 — sharing the state dir — must adopt
// the run under a higher fence and complete it bit-identically to an
// undisturbed reference, while m1 self-fences: it observes ErrLeaseLost,
// abandons without a single further state write, and books the run as lost.
func TestLeaseSkewTakeoverBitIdentical(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	spec := fastSpec(dataDir, base, target)

	// Reference: same spec, single manager, no faults.
	ref := openManager(t, Config{})
	refRec, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitTerminal(t, ref, refRec.ID, 2*time.Minute)
	if refFinal.State != StateCompleted {
		t.Fatalf("reference run %s: %s", refFinal.State, refFinal.Error)
	}
	if err := ref.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	state := t.TempDir()
	// m1: every heartbeat renewal stalls past the TTL, and the run attempt
	// itself stalls long enough for the lease to lapse before any output.
	inj := faults.New(24,
		faults.Rule{Stage: faults.SiteLeaseRenew, Ordinal: -1, Kind: faults.Delay, Delay: 700 * time.Millisecond, Times: 3},
		faults.Rule{Stage: faults.SiteServerRun, Ordinal: -1, Kind: faults.Delay, Delay: 600 * time.Millisecond},
	)
	m1 := openManager(t, Config{StateDir: state, LeaseTTL: 300 * time.Millisecond, Owner: "m1", Injector: inj})
	rec, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fence != 1 {
		t.Fatalf("admission fence = %d, want 1", rec.Fence)
	}
	waitRunning(t, m1, rec.ID, time.Minute)

	m2 := openManager(t, Config{StateDir: state, LeaseTTL: 300 * time.Millisecond, Owner: "m2"})
	final := waitTerminal(t, m2, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("taken-over run finished %s (%s), want completed", final.State, final.Error)
	}
	if final.Fence < 2 || final.Takeovers < 1 {
		t.Fatalf("takeover not fenced: fence %d takeovers %d, want >= 2 and >= 1", final.Fence, final.Takeovers)
	}
	got, want := final.Result, refFinal.Result
	if got.TableDigest != want.TableDigest || got.BaseScore != want.BaseScore || got.FinalScore != want.FinalScore {
		t.Fatalf("taken-over result diverges from reference:\n  takeover: %+v\n  reference: %+v", got, want)
	}

	// The old owner must observe the loss (heartbeat or fenced write) and
	// book the run as lost — never as completed.
	deadline := time.Now().Add(time.Minute)
	for {
		a := m1.Accounting()
		if a.Lost == 1 {
			break
		}
		if a.Completed != 0 || a.Failed != 0 {
			t.Fatalf("stale owner terminalized a stolen run: %+v", a)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale owner never observed the lease loss: %+v", a)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkAccounting(t, m1)
	checkAccounting(t, m2)
	a2 := waitSettled(t, m2, time.Minute)
	if a2.Takeovers != 1 || a2.Completed != 1 {
		t.Fatalf("new owner accounting = %+v, want 1 takeover 1 completed", a2)
	}

	// The stale owner's next persist attempt must have been fenced: the
	// record on disk is the new owner's completed one, fence intact.
	onDisk, err := m2.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateCompleted || onDisk.Fence != final.Fence {
		t.Fatalf("on-disk record clobbered by stale owner: %+v", onDisk)
	}
	if err := m1.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAdmissionRaceHandsOffLease pins the drain/admission race in lease
// mode: a submission whose persist is in flight when the drain starts must
// either reject cleanly or persist-and-acknowledge — and on the accept path
// the draining process releases the run's lease so a later process adopts
// it, rather than holding a record it will never execute.
func TestDrainAdmissionRaceHandsOffLease(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	spec := fastSpec(dataDir, base, target)
	state := t.TempDir()

	// The first persist (the admission write, seq 0) stalls long enough for
	// Drain to win the race.
	inj := faults.New(25, faults.Rule{
		Stage: faults.SiteServerPersist, Ordinal: 0, Kind: faults.Delay, Delay: 200 * time.Millisecond, Times: 1,
	})
	m1 := openManager(t, Config{StateDir: state, LeaseTTL: time.Second, Owner: "m1", Injector: inj})

	type res struct {
		rec Record
		err error
	}
	done := make(chan res, 1)
	go func() {
		rec, err := m1.Submit(spec)
		done <- res{rec, err}
	}()
	time.Sleep(50 * time.Millisecond) // submission is mid-persist now
	if err := m1.Drain(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("drain-raced submission = %v, want accepted with lease handed off", r.err)
	}

	// The record is durable and queued; the lease is gone (released for
	// adoption), not held by the draining process.
	onDisk, err := m1.Get(r.rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateQueued {
		t.Fatalf("handed-off run in state %s, want queued", onDisk.State)
	}
	if lease.Live(filepath.Join(state, "runs", r.rec.ID, lease.FileName)) {
		t.Fatal("draining process still holds the hand-off lease")
	}
	if _, err := os.Stat(filepath.Join(state, "runs", r.rec.ID, "run.json")); err != nil {
		t.Fatalf("handed-off record not durable: %v", err)
	}
	checkAccounting(t, m1)
	if err := m1.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	// The next process over the state dir adopts and completes it.
	m2 := openManager(t, Config{StateDir: state, LeaseTTL: 200 * time.Millisecond, Owner: "m2"})
	final := waitTerminal(t, m2, r.rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("adopted run finished %s (%s), want completed", final.State, final.Error)
	}
	if final.Takeovers != 1 || final.Fence < 2 {
		t.Fatalf("adoption not fenced: %+v", final)
	}
	checkAccounting(t, m2)
	if a := waitSettled(t, m2, time.Minute); a.Takeovers != 1 || a.Completed != 1 {
		t.Fatalf("adopter accounting = %+v, want 1 takeover 1 completed", a)
	}
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseDefaultConfigOwnsEveryRun: a Config that sets no LeaseTTL runs the
// leased protocol. Every admitted, non-terminal run has a lease file naming
// this manager and a record fenced at >= 1, and the lease is gone once the
// run is terminal.
func TestLeaseDefaultConfigOwnsEveryRun(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)

	// Hold every attempt so both runs are observably non-terminal: one
	// running, one queued behind the single supervisor.
	inj := faults.New(26, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: -1, Kind: faults.Delay, Delay: 300 * time.Millisecond,
	})
	m := openManager(t, Config{Injector: inj}) // no LeaseTTL
	var ids []string
	for i := 0; i < 2; i++ {
		rec, err := m.Submit(failFastSpec(dataDir, target, ""))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Fence < 1 {
			t.Fatalf("admitted %s with fence %d, want >= 1", rec.ID, rec.Fence)
		}
		ids = append(ids, rec.ID)
	}
	waitRunning(t, m, ids[0], time.Minute)
	for _, id := range ids {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lease.Read(m.leasePath(id))
		if err != nil {
			t.Fatalf("%s run %s has no lease: %v", rec.State, id, err)
		}
		if info.Owner != m.owner || info.Token != rec.Fence || rec.Fence < 1 {
			t.Fatalf("%s run %s: lease %+v, record fence %d, want owner %q and matching token >= 1", rec.State, id, info, rec.Fence, m.owner)
		}
	}
	if a := m.Accounting(); a.LeasesHeld != 2 {
		t.Fatalf("accounting = %+v, want 2 leases held", a)
	}
	for _, id := range ids {
		waitTerminal(t, m, id, time.Minute)
	}
	waitSettled(t, m, time.Minute)
	for _, id := range ids {
		if _, err := os.Stat(m.leasePath(id)); !os.IsNotExist(err) {
			t.Fatalf("terminal run %s still has a lease file (err=%v)", id, err)
		}
	}
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseDeadOwnerAdoptedAtOpen: restart recovery is the reaper's adoption.
// A running record whose lease is unexpired but held by a dead process on
// this host — what SIGKILL leaves — is adopted by Open itself, without
// waiting out the TTL, under a token above both the record's fence and the
// dead owner's.
func TestLeaseDeadOwnerAdoptedAtOpen(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run `true`: %v", err)
	}
	host, _ := os.Hostname()

	state := t.TempDir()
	dir := filepath.Join(state, "runs", "r000004")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "r000004", Seq: 4, Spec: failFastSpec(dataDir, target, ""), State: StateRunning, Fence: 3, Takeovers: 2}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	held, err := json.Marshal(lease.Info{
		RunID: rec.ID, Owner: "gone", Host: host, PID: cmd.Process.Pid,
		Token: 5, ExpiresUnixNS: time.Now().Add(time.Hour).UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, lease.FileName), held, 0o644); err != nil {
		t.Fatal(err)
	}

	// No supervisor may finish the run before it is inspected: hold attempts.
	inj := faults.New(27, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: -1, Kind: faults.Delay, Delay: 200 * time.Millisecond,
	})
	m := openManager(t, Config{StateDir: state, Injector: inj})
	// Adopted by Open, not by a later reaper tick (the first is TTL/2 away).
	got, err := m.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fence != 6 || got.Takeovers != 3 {
		t.Fatalf("adopted record = fence %d takeovers %d, want fence max(3,5)+1 = 6 and 3 takeovers", got.Fence, got.Takeovers)
	}
	if a := m.Accounting(); a.Takeovers != 1 || a.Admitted != 0 {
		t.Fatalf("accounting after Open = %+v, want 1 takeover", a)
	}
	final := waitTerminal(t, m, rec.ID, time.Minute)
	if final.State != StateFailed || final.Fence != 6 {
		t.Fatalf("adopted run finished %s under fence %d, want failed (no such table) under 6", final.State, final.Fence)
	}
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestAccountingExactUnderConcurrentCompletion hammers Accounting while a
// batch of fast runs is admitted, dispatched and finished by two
// supervisors: no snapshot may count a run twice or not at all.
func TestAccountingExactUnderConcurrentCompletion(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)
	m := openManager(t, Config{QueueCap: 64, Concurrency: 2, Logf: func(string, ...any) {}})

	stop := make(chan struct{})
	type verdict struct {
		snapshots int
		bad       *Accounting
	}
	done := make(chan verdict, 1)
	go func() {
		var v verdict
		for {
			select {
			case <-stop:
				done <- v
				return
			default:
			}
			a := m.Accounting()
			v.snapshots++
			if !balanced(a) && v.bad == nil {
				v.bad = &a
			}
		}
	}()

	var ids []string
	for i := 0; i < 40; i++ {
		rec, err := m.Submit(failFastSpec(dataDir, target, ""))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
		if i%8 == 7 {
			// A queued cancel is a terminal transition of its own.
			if _, err := m.Cancel(rec.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		waitTerminal(t, m, id, time.Minute)
	}
	close(stop)
	v := <-done
	if v.bad != nil {
		t.Fatalf("a snapshot (of %d) broke the partition: %+v", v.snapshots, *v.bad)
	}
	a := waitSettled(t, m, time.Minute)
	if a.Admitted != 40 || a.Failed+a.Canceled != 40 || a.Queued != 0 || a.Running != 0 {
		t.Fatalf("final accounting = %+v, want 40 admitted, all failed or canceled", a)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

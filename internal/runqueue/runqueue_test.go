package runqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// writeCorpus materializes the shared test corpus as a CSV directory and
// returns (dir, base table name, target column).
func writeCorpus(t *testing.T) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.15})
	write := func(tb *dataframe.Table) {
		t.Helper()
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	write(corpus.Base)
	for _, tb := range corpus.Repo {
		write(tb)
	}
	return dir, corpus.Base.Name(), corpus.Target
}

// fastSpec returns a spec that runs the full pipeline in about a second.
func fastSpec(dataDir, base, target string) Spec {
	return Spec{Dir: dataDir, Base: base, Target: target, Size: 128, Seed: 7}
}

// openManager opens a manager over fresh state with test-friendly defaults
// applied on top of overrides.
func openManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls until the run reaches a terminal state (or the wanted one).
func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) Record {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s after %s", id, rec.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRunning polls until the run leaves the queue.
func waitRunning(t *testing.T, m *Manager, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == StateRunning {
			return
		}
		if rec.State.Terminal() {
			t.Fatalf("run %s reached %s before running", id, rec.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never started (state %s)", id, rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitSettled polls until no supervisor holds a run. A run's terminal state
// is visible (Get, waitTerminal, Accounting) before its checkpoint is
// cleared, its lease released and its supervisor's slot freed, so tests
// asserting the settled artifacts must let execute return first.
func waitSettled(t *testing.T, m *Manager, timeout time.Duration) Accounting {
	t.Helper()
	if n := m.waitIdle(time.Now().Add(timeout)); n > 0 {
		t.Fatalf("queue never settled: %d supervisors busy, %+v", n, m.Accounting())
	}
	return m.Accounting()
}

// balanced reports whether the snapshot satisfies the queue partition: every
// admitted or taken-over run is in exactly one live or terminal state — or
// was fenced out of this process's custody (lost) and is its new owner's to
// count.
func balanced(a Accounting) bool {
	return a.Admitted+a.Takeovers == a.Completed+a.Failed+a.Canceled+a.Queued+a.Running+a.Lost
}

// checkAccounting asserts the partition on one snapshot; it holds at every
// instant, so there is nothing to wait for.
func checkAccounting(t *testing.T, m *Manager) {
	t.Helper()
	if a := m.Accounting(); !balanced(a) {
		t.Fatalf("queue accounting violated: admitted %d + takeovers %d != completed %d + failed %d + canceled %d + queued %d + running %d + lost %d",
			a.Admitted, a.Takeovers, a.Completed, a.Failed, a.Canceled, a.Queued, a.Running, a.Lost)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	m := openManager(t, Config{})

	rec, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.State != StateQueued {
		t.Fatalf("Submit returned %+v, want queued with an ID", rec)
	}

	final := waitTerminal(t, m, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("run finished %s (%s), want completed", final.State, final.Error)
	}
	if final.Result == nil || final.Result.TableDigest == "" || final.Result.FinalScore == 0 {
		t.Fatalf("completed run carries no result: %+v", final.Result)
	}

	// Durable artifacts: record, published result, published trace; the
	// checkpoint directory is gone (nothing left to resume). The artifacts
	// land between the state flip and the supervisor releasing its slot, so
	// settle first.
	waitSettled(t, m, time.Minute)
	runDir := filepath.Join(m.cfg.StateDir, "runs", rec.ID)
	for _, f := range []string{"run.json", "result.json", "trace.ndjson"} {
		if _, err := os.Stat(filepath.Join(runDir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(m.cfg.StateDir, "checkpoints", rec.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoints not cleared after completion (err=%v)", err)
	}
	var onDisk Record
	raw, err := os.ReadFile(filepath.Join(runDir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateCompleted || onDisk.Result == nil || onDisk.Result.TableDigest != final.Result.TableDigest {
		t.Fatalf("persisted record diverges from in-memory: %+v", onDisk)
	}
	if final.Attempts != 1 || onDisk.Attempts != 1 {
		t.Fatalf("attempts = %d in memory, %d on disk; want 1 for an undisturbed run", final.Attempts, onDisk.Attempts)
	}
	// The record accounts for the attempt's time before the pipeline: load
	// and discovery are reported next to elapsed_ms, and the three fit inside
	// the run's wall clock.
	for _, key := range []string{`"load_ms"`, `"discover_ms"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("run.json has no %s field: %s", key, raw)
		}
	}
	wall := final.FinishedAt.Sub(final.StartedAt).Milliseconds()
	if r := onDisk.Result; r.LoadMS < 0 || r.DiscoverMS < 0 || r.LoadMS+r.DiscoverMS+r.ElapsedMS > wall {
		t.Fatalf("load %d + discover %d + elapsed %d ms do not fit the run's %d ms", r.LoadMS, r.DiscoverMS, r.ElapsedMS, wall)
	}

	checkAccounting(t, m)
	if a := waitSettled(t, m, time.Minute); a.Admitted != 1 || a.Completed != 1 {
		t.Fatalf("accounting = %+v, want 1 admitted 1 completed", a)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestQueueBoundsCancelAndValidation(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	// Slow every join so the first run occupies the single slot long enough
	// to observe queue behavior deterministically.
	inj := faults.New(1, faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 80 * time.Millisecond})
	m := openManager(t, Config{QueueCap: 1, Concurrency: 1, Injector: inj})

	// Malformed specs are rejected at the door.
	if _, err := m.Submit(Spec{Target: target}); err == nil {
		t.Fatal("spec without base was admitted")
	}
	if _, err := m.Submit(Spec{Dir: dataDir, Base: base, Target: target, Plan: "bogus"}); err == nil {
		t.Fatal("spec with unknown plan was admitted")
	}

	first, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, first.ID, time.Minute)
	second, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(fastSpec(dataDir, base, target)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}

	// Canceling the queued run frees the slot immediately.
	if rec, err := m.Cancel(second.ID); err != nil || rec.State != StateCanceled {
		t.Fatalf("Cancel(queued) = %+v, %v, want canceled", rec, err)
	}
	if _, err := m.Cancel("r999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown) = %v, want ErrNotFound", err)
	}

	// Canceling the running run stops it at the next boundary.
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, first.ID, time.Minute)
	if final.State != StateCanceled {
		t.Fatalf("canceled run finished %s, want canceled", final.State)
	}
	// Canceling a terminal run is a no-op.
	if rec, err := m.Cancel(first.ID); err != nil || rec.State != StateCanceled {
		t.Fatalf("Cancel(terminal) = %+v, %v", rec, err)
	}

	checkAccounting(t, m)
	a := waitSettled(t, m, time.Minute)
	if a.RejectedFull != 1 || a.Canceled != 2 || a.Admitted != 2 {
		t.Fatalf("accounting = %+v, want 2 admitted, 2 canceled, 1 rejected_full", a)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRejectsAndPreemptedRunResumesIdentically(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	spec := fastSpec(dataDir, base, target)

	// Reference: the same spec run to completion uninterrupted.
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

	// Interrupted: start the run, drain with a deadline far shorter than the
	// run, and verify it is preempted back to queued on disk.
	state := t.TempDir()
	inj := faults.New(1, faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 40 * time.Millisecond})
	m1 := openManager(t, Config{StateDir: state, Injector: inj})
	rec, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m1, rec.ID, time.Minute)
	time.Sleep(50 * time.Millisecond) // let it make some progress
	if err := m1.Drain(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !m1.Draining() {
		t.Fatal("manager not draining after Drain")
	}
	if _, err := m1.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	preempted, err := m1.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if preempted.State != StateQueued {
		t.Fatalf("preempted run in state %s, want queued for restart", preempted.State)
	}
	checkAccounting(t, m1)
	if err := m1.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state directory: Open adopts the run under a
	// larger fence and it resumes from its checkpoint to the identical result.
	m2 := openManager(t, Config{StateDir: state})
	resumed, err := m2.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.State.Terminal() && resumed.State != StateCompleted {
		t.Fatalf("adopted run in state %s after restart", resumed.State)
	}
	final := waitTerminal(t, m2, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("resumed run finished %s (%s), want completed", final.State, final.Error)
	}
	if final.Takeovers != 1 || final.Fence <= preempted.Fence {
		t.Fatalf("restart adoption not fenced: takeovers %d, fence %d after %d", final.Takeovers, final.Fence, preempted.Fence)
	}
	a := waitSettled(t, m2, time.Minute)
	if a.Takeovers != 1 || a.Completed != 1 {
		t.Fatalf("restart accounting = %+v, want 1 takeover 1 completed", a)
	}
	checkAccounting(t, m2)

	got, want := final.Result, refFinal.Result
	if got.TableDigest != want.TableDigest || got.BaseScore != want.BaseScore ||
		got.FinalScore != want.FinalScore || len(got.KeptColumns) != len(want.KeptColumns) {
		t.Fatalf("resumed result diverges from uninterrupted run:\n  resumed: %+v\n  reference: %+v", got, want)
	}
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionAndPersistenceFaults(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)

	// A hard admission fault rejects the submission; nothing is admitted.
	inj := faults.New(3, faults.Rule{Stage: faults.SiteServerAdmit, Ordinal: -1, Kind: faults.Error})
	m := openManager(t, Config{Injector: inj})
	if _, err := m.Submit(fastSpec(dataDir, base, target)); err == nil {
		t.Fatal("submission survived an admission fault")
	}
	if a := m.Accounting(); a.Admitted != 0 {
		t.Fatalf("accounting after rejected admission = %+v", a)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	// Transient persistence faults are absorbed by the retry loop: the run
	// is admitted and completes.
	inj2 := faults.New(3, faults.Rule{
		Stage: faults.SiteServerPersist, Ordinal: -1, Kind: faults.Error,
		Transient: true, Times: 1,
	})
	m2 := openManager(t, Config{Injector: inj2})
	rec, err := m2.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatalf("submission failed under transient persist fault: %v", err)
	}
	final := waitTerminal(t, m2, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("run under transient persist faults finished %s (%s)", final.State, final.Error)
	}
	checkAccounting(t, m2)
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestTransientRunFailureRetriesToCompletion(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)

	// A transient fault at the attempt-level site fails whole attempts (the
	// pipeline's per-candidate quarantine never does); the supervisor's
	// retry loop must absorb it and complete the run.
	inj := faults.New(5, faults.Rule{
		Stage: faults.SiteServerRun, Ordinal: -1, Kind: faults.Error, Transient: true, Times: 2,
	})
	m := openManager(t, Config{Injector: inj, RetryBase: time.Millisecond})
	rec, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("run finished %s (%s), want completed after transient retries", final.State, final.Error)
	}
	if final.Attempts < 2 {
		t.Fatalf("record counts %d attempts, want >= 2 after injected transient failures", final.Attempts)
	}
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestRunHardFailureIsContained(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, _, target := writeCorpus(t)
	m := openManager(t, Config{})

	// A run over a nonexistent base table fails; the daemon and its queue
	// survive and the failure is recorded.
	bad, err := m.Submit(Spec{Dir: dataDir, Base: "no-such-table", Target: target, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, bad.ID, time.Minute)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("bad run finished %s (%q), want failed with a reason", final.State, final.Error)
	}
	checkAccounting(t, m)
	if a := waitSettled(t, m, time.Minute); a.Failed != 1 {
		t.Fatalf("accounting = %+v, want 1 failed", a)
	}

	// The attempt failed before the pipeline started, and still finished its
	// trace: a late subscriber (GET /runs/{id}/events of the failed run)
	// replays the history, terminal run event last, and its channel closes.
	stream, _, err := m.Stream(bad.ID)
	if err != nil || stream == nil {
		t.Fatalf("Stream(%s) = %v, %v; want the failed attempt's stream", bad.ID, stream, err)
	}
	sub := stream.Subscribe(0)
	defer sub.Close()
	var last obs.Event
	for open := true; open; {
		select {
		case ev, ok := <-sub.Events():
			if open = ok; ok {
				last = ev
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the failed run's event stream never closed")
		}
	}
	if last.Type != obs.EventRun {
		t.Fatalf("failed run's stream ended with %q %q, want the run event", last.Type, last.Name)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSkipsTerminalAndCorruptRecords(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	state := t.TempDir()
	dataDir, base, target := writeCorpus(t)

	// Seed the state directory by hand: one completed record, one corrupt
	// record, one interrupted (running) record.
	writeRec := func(id string, rec Record) {
		t.Helper()
		dir := filepath.Join(state, "runs", id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "run.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec := fastSpec(dataDir, base, target)
	writeRec("r000001", Record{ID: "r000001", Seq: 1, Spec: spec, State: StateCompleted,
		Result: &RunResult{TableDigest: "cafe"}})
	writeRec("r000002", Record{ID: "r000002", Seq: 2, Spec: spec, State: StateRunning})
	if err := os.MkdirAll(filepath.Join(state, "runs", "r000003"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "runs", "r000003", "run.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, Config{StateDir: state})
	// The completed record is served from disk untouched; the corrupt one is
	// skipped; the interrupted one is adopted and completes.
	if rec, err := m.Get("r000001"); err != nil || rec.State != StateCompleted {
		t.Fatalf("completed record after recover: %+v, %v", rec, err)
	}
	if _, err := m.Get("r000003"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt record resurrected: %v", err)
	}
	final := waitTerminal(t, m, "r000002", 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("interrupted run finished %s (%s), want completed", final.State, final.Error)
	}
	// New submissions get sequence numbers beyond every recovered record.
	rec, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq <= 2 {
		t.Fatalf("post-recovery Seq = %d, want > 2", rec.Seq)
	}
	if _, err := m.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, rec.ID, time.Minute)
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestStreamExposesRunEvents(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	m := openManager(t, Config{})

	rec, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, rec.ID, 2*time.Minute)
	stream, path, err := m.Stream(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stream == nil {
		t.Fatal("no stream for an executed run")
	}
	if stream.Emitted() == 0 {
		t.Fatal("run stream emitted no events")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not published: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("trace file empty")
	}
	if _, _, err := m.Stream("r424242"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stream(unknown) = %v, want ErrNotFound", err)
	}
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// readManifest returns the fingerprint and the listed shard files of the
// checkpoint log in dir (nil shards while no manifest has been published).
func readManifest(t *testing.T, dir string) (string, []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, checkpoint.ManifestName))
	if err != nil {
		return "", nil
	}
	var man struct {
		Fingerprint string
		Entries     []struct{ Shard string }
	}
	if err := json.Unmarshal(raw[bytes.IndexByte(raw, '\n')+1:], &man); err != nil {
		t.Fatalf("manifest in %s: %v", dir, err)
	}
	var shards []string
	for _, e := range man.Entries {
		shards = append(shards, e.Shard)
	}
	return man.Fingerprint, shards
}

// TestHalfDeletedCheckpointRestartsFromScratch: a checkpoint whose manifest
// names a shard that is gone — what a process killed while clearing a
// finished run's checkpoint used to leave — makes the checkpoint unusable,
// not the run. The next owner discards it, restarts from scratch and lands
// on the uninterrupted result.
func TestHalfDeletedCheckpointRestartsFromScratch(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	spec := fastSpec(dataDir, base, target)

	ref := openManager(t, Config{})
	refRec, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, refRec.ID, 2*time.Minute)
	if want.State != StateCompleted {
		t.Fatalf("reference run %s: %s", want.State, want.Error)
	}
	if err := ref.Close(time.Minute); err != nil {
		t.Fatal(err)
	}

	state := t.TempDir()
	inj := faults.New(1, faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 40 * time.Millisecond})
	m1 := openManager(t, Config{StateDir: state, Injector: inj})
	rec, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ck := m1.ckDir(rec.ID)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if _, shards := readManifest(t, ck); len(shards) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never checkpointed a stage")
		}
	}
	if err := m1.Drain(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	preempted, _ := m1.Get(rec.ID)
	if preempted.State != StateQueued {
		t.Fatalf("preempted run in state %s, want queued", preempted.State)
	}
	if err := m1.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	_, shards := readManifest(t, ck)
	if err := os.Remove(filepath.Join(ck, shards[0])); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, Config{StateDir: state})
	final := waitTerminal(t, m2, rec.ID, 2*time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("run over a half-deleted checkpoint finished %s (%s), want completed", final.State, final.Error)
	}
	if got, w := final.Result, want.Result; got.TableDigest != w.TableDigest ||
		got.BaseScore != w.BaseScore || got.FinalScore != w.FinalScore || got.ResumedFrom != "" {
		t.Fatalf("restarted result diverges from uninterrupted run:\n  restarted: %+v\n  reference: %+v", got, w)
	}
	if n := m2.cDiscarded.Value(); n != 1 {
		t.Fatalf("queue.checkpoints_discarded = %d, want 1", n)
	}
	if final.Takeovers != 1 || final.Fence <= preempted.Fence {
		t.Fatalf("restart adoption not fenced: takeovers %d, fence %d after %d", final.Takeovers, final.Fence, preempted.Fence)
	}
	if a := waitSettled(t, m2, time.Minute); a.Takeovers != 1 || a.Completed != 1 || a.Failed != 0 {
		t.Fatalf("restart accounting = %+v, want 1 takeover 1 completed", a)
	}
	checkAccounting(t, m2)
	if err := m2.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionDurableBeforeVisible holds the persist that completes a run
// and checks the order of its transition: while run.json is still being
// written, readers see a running run and its checkpoint still opens;
// afterwards the run is completed on disk and in memory, the checkpoint is
// gone, and the completion was logged once.
func TestCompletionDurableBeforeVisible(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)

	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// Every record write is held 400ms: admission, the running transition,
	// result.json, and — the window under test — the completing run.json.
	inj := faults.New(1, faults.Rule{Stage: faults.SiteServerPersist, Ordinal: -1, Kind: faults.Delay, Delay: 400 * time.Millisecond})
	m := openManager(t, Config{Injector: inj, Logf: logf})
	rec, err := m.Submit(fastSpec(dataDir, base, target))
	if err != nil {
		t.Fatal(err)
	}
	// result.json lands immediately before the completing persist starts.
	resultPath := filepath.Join(m.runDir(rec.ID), "result.json")
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(2 * time.Millisecond) {
		if _, err := os.Stat(resultPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never published its result")
		}
	}
	if got, _ := m.Get(rec.ID); got.State != StateRunning {
		t.Fatalf("Get reports %s while the completing persist is in flight, want running", got.State)
	}
	if disk, err := m.readRecord(rec.ID); err != nil || disk.State.Terminal() {
		t.Fatalf("on-disk record %+v (%v) while the completing persist is in flight", disk.State, err)
	}
	fp, _ := readManifest(t, m.ckDir(rec.ID))
	if _, err := checkpoint.Open(m.ckDir(rec.ID), fp); err != nil {
		t.Fatalf("checkpoint does not open while the run is not yet durably completed: %v", err)
	}

	final := waitTerminal(t, m, rec.ID, time.Minute)
	if final.State != StateCompleted {
		t.Fatalf("run finished %s (%s), want completed", final.State, final.Error)
	}
	if disk, err := m.readRecord(rec.ID); err != nil || disk.State != StateCompleted {
		t.Fatalf("Get reports completed but the on-disk record says %s (%v)", disk.State, err)
	}
	waitSettled(t, m, time.Minute)
	if _, err := os.Stat(m.ckDir(rec.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoints not cleared after completion (err=%v)", err)
	}
	mu.Lock()
	completed := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "completed "+rec.ID) {
			completed++
		}
	}
	mu.Unlock()
	if completed != 1 {
		t.Fatalf("%d completed log lines, want exactly 1:\n%s", completed, strings.Join(lines, "\n"))
	}
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}

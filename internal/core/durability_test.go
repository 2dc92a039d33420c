package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// resultKey flattens the deterministic parts of a Result for equality
// comparison: kept features, scores, batch reports, the screen's verdicts,
// quarantines, and the full augmented table contents.
// Timing fields are excluded.
func resultKey(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("kept:")
	b.WriteString(strings.Join(r.KeptColumns, ","))
	b.WriteString("|tables:")
	b.WriteString(strings.Join(r.KeptTables, ","))
	writeF := func(f float64) {
		fmt.Fprintf(&b, "|%016x", math.Float64bits(f))
	}
	writeF(r.BaseScore)
	writeF(r.FinalScore)
	for _, br := range r.Batches {
		b.WriteString("|batch:")
		b.WriteString(strings.Join(br.Tables, ","))
		b.WriteString("/")
		b.WriteString(strings.Join(br.KeptFeatures, ","))
	}
	fmt.Fprintf(&b, "|screened:%d", r.CandidatesScreened)
	for _, s := range r.Screened {
		fmt.Fprintf(&b, "|s:%s/%d/%t", s.Name, s.Features, s.Kept)
		writeF(s.Score)
	}
	for _, q := range quarantineKeys(r.Quarantined) {
		b.WriteString("|q:")
		b.WriteString(q)
	}
	if r.Table != nil {
		fmt.Fprintf(&b, "|digest:%016x", r.Table.Digest())
	}
	return b.String()
}

// cloneCheckpointDir copies a checkpoint run directory for destructive
// truncation without touching the original.
func cloneCheckpointDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointResumeBitIdenticalAtEveryBoundary is the crash/resume
// determinism suite. One checkpointed run lays down every stage snapshot;
// truncating the log to its first n entries reproduces exactly the on-disk
// state of a process killed right after its nth stage checkpoint. For every
// boundary — including before the first checkpoint — a resumed run (in a
// fresh in-process "process": new Log, new injector-free options) must
// produce a Result bit-identical to the uninterrupted baseline, at both 1
// and 8 workers.
func TestCheckpointResumeBitIdenticalAtEveryBoundary(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	resumeAtEveryBoundary(t, corpus, cands, chaosOptions,
		"prefilter", "coreset", "join", "impute", "select", "materialize", "evaluate")
}

// TestCheckpointResumeBitIdenticalWithScreen is the same suite over a corpus
// the screen stage has to cut (350 tables against 192 coreset rows, then two
// budget batches): the log gains the screen boundary, and a run killed on
// either side of it resumes to the same survivors, scores and table.
func TestCheckpointResumeBitIdenticalWithScreen(t *testing.T) {
	corpus, cands := wideCorpus(t)
	resumeAtEveryBoundary(t, corpus, cands, wideOptions,
		"prefilter", "coreset", "screen", "join", "impute", "select", "materialize", "evaluate")
}

// resumeAtEveryBoundary is the body of the two tests above: mkOpts builds the
// run's options for a worker count, wantStages are the checkpoint stages the
// full run must have written.
func resumeAtEveryBoundary(t *testing.T, corpus *synth.Corpus, cands []discovery.Candidate,
	mkOpts func(*synth.Corpus, int, *faults.Injector) Options, wantStages ...string) {
	defer testenv.NoGoroutineLeak(t)()
	defer parallel.SetMaxWorkers(0)

	// Uncheckpointed baseline.
	baseOpts := mkOpts(corpus, 1, nil)
	baseline, err := Augment(corpus.Base, cands, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := resultKey(t, baseline)

	// Full checkpointed run: output must be unchanged by checkpointing.
	ckDir := t.TempDir()
	full := mkOpts(corpus, 1, nil)
	full.CheckpointDir = ckDir
	ckRes, err := Augment(corpus.Base, cands, full)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKey(t, ckRes); got != want {
		t.Fatalf("checkpointing changed the result:\n got %s\nwant %s", got, want)
	}
	log, err := checkpoint.Open(ckDir, runFingerprint(corpus.Base, cands, &full))
	if err != nil {
		t.Fatal(err)
	}
	entries := log.Entries()
	if len(entries) < 5 {
		t.Fatalf("only %d stage checkpoints written: %+v", len(entries), entries)
	}
	stages := map[string]bool{}
	for _, e := range entries {
		stages[e.Stage] = true
	}
	for _, s := range wantStages {
		if !stages[s] {
			t.Fatalf("no %q checkpoint in %+v", s, entries)
		}
	}

	for n := 0; n <= len(entries); n++ {
		for _, workers := range []int{1, 8} {
			dir := cloneCheckpointDir(t, ckDir)
			if n < len(entries) {
				if err := checkpoint.Truncate(dir, n); err != nil {
					t.Fatal(err)
				}
			}
			opts := mkOpts(corpus, workers, nil)
			opts.CheckpointDir = dir
			opts.Resume = true
			res, err := Augment(corpus.Base, cands, opts)
			if err != nil {
				t.Fatalf("resume at boundary %d (workers=%d): %v", n, workers, err)
			}
			if got := resultKey(t, res); got != want {
				t.Fatalf("resume at boundary %d (workers=%d) diverged:\n got %s\nwant %s", n, workers, got, want)
			}
			if n == 0 && res.ResumedFrom != "" {
				t.Fatalf("boundary 0 should run fresh, got ResumedFrom=%q", res.ResumedFrom)
			}
			if n > 0 && res.ResumedFrom == "" {
				t.Fatalf("boundary %d did not report ResumedFrom", n)
			}
		}
	}
}

// TestCheckpointResumeWithQuarantine crashes a faulted run at every stage
// boundary: the quarantine list accumulated before the crash must persist
// through the manifest and the resumed Result must match the uninterrupted
// faulted baseline exactly.
func TestCheckpointResumeWithQuarantine(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	resumeWithQuarantine(t, corpus, cands, chaosOptions,
		faults.At(faults.Error, "join", 2),
		faults.At(faults.Panic, "join", 5),
		faults.At(faults.Error, "impute", 7),
		faults.At(faults.Error, "encode", 9),
		faults.At(faults.Panic, "materialize", 0),
	)
}

// TestCheckpointResumeWithScreenQuarantine adds the screen's fault site: a
// candidate quarantined there is neither scored again nor offered again on
// whichever side of the screen boundary the run is resumed.
func TestCheckpointResumeWithScreenQuarantine(t *testing.T) {
	corpus, cands := wideCorpus(t)
	resumeWithQuarantine(t, corpus, cands, wideOptions,
		faults.At(faults.Error, "screen", 3),
		faults.At(faults.Panic, "screen", 7),
		faults.At(faults.Error, "join", 2),
		faults.At(faults.Panic, "materialize", 0),
	)
}

func resumeWithQuarantine(t *testing.T, corpus *synth.Corpus, cands []discovery.Candidate,
	mkOpts func(*synth.Corpus, int, *faults.Injector) Options, rules ...faults.Rule) {
	defer testenv.NoGoroutineLeak(t)()
	defer parallel.SetMaxWorkers(0)
	mkInj := func() *faults.Injector { return faults.New(99, rules...) }

	baseline, err := Augment(corpus.Base, cands, mkOpts(corpus, 1, mkInj()))
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Quarantined) == 0 {
		t.Fatal("faulted baseline quarantined nothing; the test would prove nothing")
	}
	want := resultKey(t, baseline)

	ckDir := t.TempDir()
	full := mkOpts(corpus, 1, mkInj())
	full.CheckpointDir = ckDir
	if _, err := Augment(corpus.Base, cands, full); err != nil {
		t.Fatal(err)
	}
	log, err := checkpoint.Open(ckDir, runFingerprint(corpus.Base, cands, &full))
	if err != nil {
		t.Fatal(err)
	}
	entries := log.Entries()

	for n := 1; n <= len(entries); n++ {
		dir := cloneCheckpointDir(t, ckDir)
		if n < len(entries) {
			if err := checkpoint.Truncate(dir, n); err != nil {
				t.Fatal(err)
			}
		}
		// A fresh injector models the restarted process: same rules, zeroed
		// attempt counters. Determinism holds because each (stage, ordinal)
		// site runs inside exactly one stage region, so a site either
		// replayed entirely before the crash (its quarantine persisted in
		// the snapshot) or runs entirely after resume.
		opts := mkOpts(corpus, 8, mkInj())
		opts.CheckpointDir = dir
		opts.Resume = true
		res, err := Augment(corpus.Base, cands, opts)
		if err != nil {
			t.Fatalf("faulted resume at boundary %d: %v", n, err)
		}
		if got := resultKey(t, res); got != want {
			t.Fatalf("faulted resume at boundary %d diverged:\n got %s\nwant %s", n, got, want)
		}
	}
}

// An interrupted checkpointed run must be resumable: cancel mid-run, then
// finish with Resume and get the uninterrupted result.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	defer parallel.SetMaxWorkers(0)
	corpus, cands := chaosCorpus(t)

	baseline, err := Augment(corpus.Base, cands, chaosOptions(corpus, 1, nil))
	if err != nil {
		t.Fatal(err)
	}

	ckDir := t.TempDir()
	opts := chaosOptions(corpus, 1, nil)
	opts.CheckpointDir = ckDir
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first stage boundary
	if _, err := AugmentContext(ctx, corpus.Base, cands, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run err = %v, want ErrCanceled", err)
	}

	opts.Resume = true
	res, err := Augment(corpus.Base, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultKey(t, res), resultKey(t, baseline); got != want {
		t.Fatalf("resume after cancel diverged:\n got %s\nwant %s", got, want)
	}
}

// Resume against checkpoints from different inputs or options must refuse
// with the typed mismatch error, and rerunning without Resume must recover
// cleanly by starting fresh.
func TestResumeFingerprintMismatch(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	ckDir := t.TempDir()
	opts := chaosOptions(corpus, 1, nil)
	opts.CheckpointDir = ckDir
	if _, err := Augment(corpus.Base, cands, opts); err != nil {
		t.Fatal(err)
	}

	changed := opts
	changed.Seed = opts.Seed + 1
	changed.Resume = true
	if _, err := Augment(corpus.Base, cands, changed); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}

	// Clean fallback: without Resume the stale run is swept and the run
	// succeeds.
	changed.Resume = false
	if _, err := Augment(corpus.Base, cands, changed); err != nil {
		t.Fatalf("fresh run over stale checkpoints failed: %v", err)
	}
}

// Resume over damaged checkpoint bytes must refuse with the typed corrupt
// error naming the damaged shard.
func TestResumeCorruptShard(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	ckDir := t.TempDir()
	opts := chaosOptions(corpus, 1, nil)
	opts.CheckpointDir = ckDir
	if _, err := Augment(corpus.Base, cands, opts); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	var shard string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".shard") {
			shard = e.Name()
			break
		}
	}
	raw, err := os.ReadFile(filepath.Join(ckDir, shard))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(ckDir, shard), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	_, err = Augment(corpus.Base, cands, opts)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
	if !strings.Contains(err.Error(), shard) {
		t.Fatalf("error does not name the shard: %v", err)
	}
}

// Resume pointed at an empty directory is a fresh run, not an error.
func TestResumeEmptyDirRunsFresh(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	opts := chaosOptions(corpus, 1, nil)
	opts.CheckpointDir = t.TempDir()
	opts.Resume = true
	res, err := Augment(corpus.Base, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != "" {
		t.Fatalf("fresh run reports ResumedFrom=%q", res.ResumedFrom)
	}
	if res.Table == nil {
		t.Fatal("fresh run under Resume produced no table")
	}
}

// Resume without a checkpoint directory is a configuration error.
func TestResumeRequiresCheckpointDir(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	opts := chaosOptions(corpus, 1, nil)
	opts.Resume = true
	if _, err := Augment(corpus.Base, cands, opts); err == nil {
		t.Fatal("Resume without CheckpointDir should error")
	}
}

// An injected checkpoint.write fault must degrade durability, never the run:
// the run completes with the same result, just fewer snapshots.
func TestCheckpointWriteFaultTolerated(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	baseline, err := Augment(corpus.Base, cands, chaosOptions(corpus, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOptions(corpus, 1, faults.New(7, faults.At(faults.Error, "checkpoint.write", 1)))
	opts.CheckpointDir = t.TempDir()
	res, err := Augment(corpus.Base, cands, opts)
	if err != nil {
		t.Fatalf("run with failing checkpoint write: %v", err)
	}
	if got, want := resultKey(t, res), resultKey(t, baseline); got != want {
		t.Fatalf("checkpoint write fault changed the result:\n got %s\nwant %s", got, want)
	}
	// The skipped snapshot must be absent, the rest present and loadable.
	log, err := checkpoint.Open(opts.CheckpointDir, runFingerprint(corpus.Base, cands, &opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Entries()) == 0 {
		t.Fatal("no checkpoints written at all")
	}
}

// An injected checkpoint.load fault surfaces as the typed corrupt error.
func TestCheckpointLoadFaultIsCorrupt(t *testing.T) {
	corpus, cands := chaosCorpus(t)
	opts := chaosOptions(corpus, 1, nil)
	opts.CheckpointDir = t.TempDir()
	if _, err := Augment(corpus.Base, cands, opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	opts.FaultInjector = faults.New(7, faults.At(faults.Error, "checkpoint.load", -1))
	if _, err := Augment(corpus.Base, cands, opts); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
}

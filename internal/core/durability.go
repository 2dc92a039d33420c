package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
)

// Typed checkpoint failures surfaced by AugmentContext when Options.Resume
// finds an unusable run directory. They alias the internal/checkpoint
// sentinels so errors.Is works on either. The clean fallback is rerunning
// without Resume: Create sweeps the stale state and starts fresh.
var (
	// ErrCheckpointCorrupt reports checkpoint bytes that fail integrity
	// verification (CRC mismatch, truncation, undecodable shard).
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointMismatch reports a structurally valid checkpoint recorded
	// for different inputs or options than this run's.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// Durable runs snapshot the cumulative state after every stage. Each shard
// is self-sufficient: resume loads only the LAST one and recomputes the cheap
// deterministic prefix (prefilter, plan) from the original inputs, which the
// fingerprint guarantees are unchanged — so no shard serializes the candidate
// tables themselves.
//
// The one subtle invariant is column aliasing. A batch's work table shares
// column OBJECTS with Accum, and imputation mutates them in place: that is
// how one batch's imputation of base columns reaches later batches. A
// snapshot therefore holds Accum and the batch's added columns as two
// tables, and the driver rebuilds work for a batch resumed past its join by
// re-aliasing the restored Accum's columns and appending the restored added
// ones — the exact sharing an uninterrupted run has at that point.

// runState is the run's cumulative state, and — gob-encoded as it stands —
// the payload of every checkpoint shard: a resumed run starts from the last
// shard's copy of it. Stages only ever add to it, so what later stages will
// add is still zero.
type runState struct {
	// Accum is the carried-forward working table: the coreset base (from the
	// "coreset" stage on) plus every kept column so far, including all
	// in-place imputations to date.
	Accum *dataframe.Table
	// KeptByCandidate maps candidate ordinal -> kept source columns
	// (unprefixed), from the join plan on.
	KeptByCandidate [][]string
	// Batch is the open batch between its "join" and its "select"; zero
	// outside one.
	Batch batchState
	// Result is the Result so far — what an interrupted run returns as its
	// partial snapshot, and after "evaluate" the complete one. Its Screened
	// is the screen's stored verdict; Elapsed and Trace are set at the exit
	// only and never stored.
	Result Result
}

// runFingerprint digests everything that determines a run's output: the base
// table, every candidate (table contents, keys, score, kind flags), and the
// semantic options. Workers, Timeout, CheckpointDir/Resume, and the
// observability and fault-injection hooks are deliberately excluded — a
// checkpointed run may be resumed at a different worker count, under a
// different timeout, or with different logging, and still produce the
// identical Result. The leading version tag is bumped whenever the option set
// or runState's gob layout changes: gob zero-fills fields it does not find,
// so a shard written by an older binary must surface as
// ErrCheckpointMismatch, never as a silent partial decode.
func runFingerprint(base *dataframe.Table, cands []discovery.Candidate, o *Options) string {
	h := fnv.New64a()
	writeU64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	selector := ""
	if o.Selector != nil {
		selector = o.Selector.Name()
	}
	fmt.Fprintf(h, "v3|target=%s|coreset=%d/%d|plan=%d|budget=%d|tau=%g|soft=%d|noresample=%t|tol=%g|seed=%d|knn=%d|sig=%d|sel=%s|customest=%t|",
		o.Target, o.CoresetStrategy, o.CoresetSize, o.Plan, o.Budget,
		o.TupleRatioTau, o.SoftMethod, o.DisableTimeResample, o.Tolerance,
		o.Seed, o.KNNImpute, o.Significance, selector, o.Estimator != nil)
	writeU64(base.Digest())
	writeU64(uint64(len(cands)))
	for _, c := range cands {
		writeU64(c.Table.Digest())
		for _, k := range c.Keys {
			fmt.Fprintf(h, "%s>%s/%d|", k.BaseColumn, k.ForeignColumn, k.Kind)
		}
		writeU64(math.Float64bits(c.Score))
		fmt.Fprintf(h, "soft=%t|geo=%t|", c.Soft, c.Geo)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openLog sets up the checkpoint log per the options: none when durability
// is off, a fresh log otherwise, and — under Resume — the prior run's log,
// with its last snapshot loaded as the cumulative state and doneRank marking
// how far it got. An empty directory under Resume starts fresh rather than
// erroring; corrupt or mismatched state is a typed error, never a silent
// partial reuse.
func (r *run) openLog() (err error) {
	o := &r.opts
	if o.CheckpointDir == "" {
		return nil
	}
	fp := runFingerprint(r.base, r.cands, o)
	if o.Resume {
		r.ck, err = checkpoint.Open(o.CheckpointDir, fp)
	}
	if !o.Resume || errors.Is(err, os.ErrNotExist) {
		runID := fmt.Sprintf("arda-%s-%d", fp[:8], time.Now().UnixNano())
		r.ck, err = checkpoint.Create(o.CheckpointDir, runID, fp, o.Seed)
		return err
	}
	if err != nil {
		return err
	}
	// A valid but empty log means the prior run died before its first
	// checkpoint: resume is simply a fresh run appending to it.
	entry, ok := r.ck.Latest()
	if !ok {
		return nil
	}
	if err := faultAt(o.FaultInjector, "checkpoint.load", entry.Seq); err != nil {
		return fmt.Errorf("checkpoint: shard %s: %v: %w", entry.Shard, err, ErrCheckpointCorrupt)
	}
	if err := r.ck.Load(entry.Seq, &r.st); err != nil {
		return err
	}
	r.doneRank = stageRank(entry.Stage, entry.Batch)
	from := entry.Stage
	if entry.Batch >= 0 {
		from = fmt.Sprintf("%s[%d]", entry.Stage, entry.Batch)
	}
	r.st.Result.ResumedFrom = from
	o.logf("resuming from checkpoint %s (%d stages on disk)", from, entry.Seq+1)
	return nil
}

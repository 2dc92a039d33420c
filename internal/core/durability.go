package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/eval"
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

// Durable runs snapshot cumulative pipeline state after every stage. Each
// shard is self-sufficient: resume loads only the LAST completed stage's
// shard and recomputes the cheap deterministic prefix (prefilter, plan,
// degradation ladder) from the original inputs — which the fingerprint
// guarantees are unchanged — so no shard needs to serialize the candidate
// tables themselves.
//
// The one subtle invariant is column aliasing. The batch loop's `work` table
// shares column OBJECTS with `accum` (and imputation mutates them in place),
// which is how a batch's imputation of base columns becomes visible to later
// batches. A snapshot therefore stores `accum` and the batch's added columns
// separately, and restore rebuilds `work` by re-aliasing the restored accum's
// columns and appending the restored added columns — reproducing the exact
// sharing an uninterrupted run has at that point.

// runState is the gob-encoded payload of every checkpoint shard: the
// cumulative pipeline state at one stage boundary. Fields past the point the
// snapshot was taken are zero.
type runState struct {
	// Accum is the carried-forward working table: the coreset base plus every
	// kept column so far, including all in-place imputations to date.
	Accum *dataframe.Table
	// KeptByCandidate maps candidate ordinal -> kept source columns.
	KeptByCandidate [][]string
	// Screen is the screen stage's outcome — surviving ordinals and per-table
	// scores — from the "screen" snapshot on; nil when every candidate fit
	// and the stage chose nothing.
	Screen *screenOutcome
	// Quarantined, Batches, Degraded, and SelectionNanos mirror the Result
	// accumulation at the snapshot point.
	Quarantined    []QuarantinedCandidate
	Batches        []BatchReport
	Degraded       []Degradation
	SelectionNanos int64
	// Added, AddedCols, Tables, and NewCols capture the mid-batch join state
	// ("join"/"impute" snapshots): which candidates joined, the columns they
	// contributed (as a standalone table), and the batch counters.
	Added     []addedCandidate
	AddedCols *dataframe.Table
	Tables    []string
	NewCols   int
	// Final and the kept lists are set by the "materialize" snapshot.
	Final       *dataframe.Table
	KeptColumns []string
	KeptTables  []string
	// The score block is set by the "evaluate" snapshot, making it a complete
	// Result.
	BaseScore, FinalScore float64
	EstimatorName         string
	Significance          *eval.SignificanceResult
}

// addedCandidate is the wire form of one joined candidate's batch bookkeeping.
type addedCandidate struct {
	Ordinal int
	Name    string
	Prefix  string
	Cols    []string
}

// stageRank linearizes the stage sequence so "how far did the run get" is a
// single comparison. screen sits between coreset and the first batch;
// per-batch stages interleave as join/impute/select per batch ordinal;
// materialize and evaluate order after every batch.
func stageRank(stage string, batch int) int {
	switch stage {
	case "prefilter":
		return 0
	case "coreset":
		return 1
	case "screen":
		return 2
	case "join":
		return 3 + batch*3
	case "impute":
		return 4 + batch*3
	case "select":
		return 5 + batch*3
	case "materialize":
		return math.MaxInt32 - 1
	case "evaluate":
		return math.MaxInt32
	}
	return -1
}

// stageLabel renders a checkpoint entry for Result.ResumedFrom.
func stageLabel(e checkpoint.Entry) string {
	if e.Batch >= 0 {
		return fmt.Sprintf("%s[%d]", e.Stage, e.Batch)
	}
	return e.Stage
}

// runFingerprint digests everything that determines a run's output: the base
// table, every candidate (table contents, keys, score, kind flags), and the
// semantic options. Workers, Timeout, CheckpointDir/Resume, and the
// observability and fault-injection hooks are deliberately excluded — a
// checkpointed run may be resumed at a different worker count, under a
// different timeout, or with different logging, and still produce the
// identical Result.
func runFingerprint(base *dataframe.Table, cands []discovery.Candidate, o *Options) string {
	h := fnv.New64a()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(v >> (8 * i))
		}
		h.Write(scratch[:])
	}
	selector := ""
	if o.Selector != nil {
		selector = o.Selector.Name()
	}
	fmt.Fprintf(h, "v1|target=%s|coreset=%d/%d|plan=%d|budget=%d|tau=%g|soft=%d|noresample=%t|tol=%g|seed=%d|knn=%d|sig=%d|keepscores=%t|maxcells=%d|maxbytes=%d|sel=%s|customest=%t|",
		o.Target, o.CoresetStrategy, o.CoresetSize, o.Plan, o.Budget,
		o.TupleRatioTau, o.SoftMethod, o.DisableTimeResample, o.Tolerance,
		o.Seed, o.KNNImpute, o.Significance, o.KeepScores,
		o.MaxCells, o.MaxCandidateBytes, selector, o.Estimator != nil)
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

// openRunLog sets up the checkpoint log per the options: nil when durability
// is off, a fresh log otherwise, and — under Resume — the prior run's log
// with its last snapshot loaded and verified. An empty directory under
// Resume starts fresh rather than erroring; corrupt or mismatched state is a
// typed error, never a silent partial reuse.
func openRunLog(base *dataframe.Table, cands []discovery.Candidate, o *Options) (*checkpoint.Log, *runState, *checkpoint.Entry, error) {
	if o.CheckpointDir == "" {
		return nil, nil, nil, nil
	}
	fp := runFingerprint(base, cands, o)
	runID := fmt.Sprintf("arda-%s-%d", fp[:8], time.Now().UnixNano())
	if !o.Resume {
		ck, err := checkpoint.Create(o.CheckpointDir, runID, fp, o.Seed)
		return ck, nil, nil, err
	}
	ck, err := checkpoint.Open(o.CheckpointDir, fp)
	if errors.Is(err, os.ErrNotExist) {
		ck, err = checkpoint.Create(o.CheckpointDir, runID, fp, o.Seed)
		return ck, nil, nil, err
	}
	if err != nil {
		return nil, nil, nil, err
	}
	entry, ok := ck.Latest()
	if !ok {
		// A valid but empty log: the prior run died before its first
		// checkpoint. Resume is simply a fresh run appending to it.
		return ck, nil, nil, nil
	}
	if err := faultAt(o.FaultInjector, "checkpoint.load", entry.Seq); err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: shard %s: %v: %w", entry.Shard, err, ErrCheckpointCorrupt)
	}
	st := &runState{}
	if err := ck.Load(entry.Seq, st); err != nil {
		return nil, nil, nil, err
	}
	return ck, st, &entry, nil
}

// restoreBatch rebuilds the batch loop's mid-batch state from a "join" or
// "impute" snapshot: work re-aliases the restored accum's columns (so
// subsequent in-place imputation propagates exactly as in an uninterrupted
// run) and then appends the batch's restored added columns.
func restoreBatch(st *runState, accum *dataframe.Table) (*dataframe.Table, []joinedCandidate, []string, int, error) {
	work := dataframe.MustNewTable(accum.Name(), accum.Columns()...)
	if st.AddedCols != nil {
		for _, col := range st.AddedCols.Columns() {
			if err := work.AddColumn(col); err != nil {
				return nil, nil, nil, 0, fmt.Errorf("core: restoring batch columns: %w", err)
			}
		}
	}
	jcs := make([]joinedCandidate, 0, len(st.Added))
	for _, a := range st.Added {
		jcs = append(jcs, joinedCandidate{ordinal: a.Ordinal, name: a.Name, prefix: a.Prefix, cols: a.Cols})
	}
	return work, jcs, st.Tables, st.NewCols, nil
}

// joinedCandidate is the batch loop's bookkeeping for one successfully
// joined candidate: its plan ordinal, table name, column prefix, and the
// columns the join added to work.
type joinedCandidate struct {
	ordinal int
	name    string
	prefix  string
	cols    []string
}

// batchSnapshot converts the batch loop's live state into the snapshot wire
// form: the added-candidate records plus a standalone table referencing the
// added columns (still living inside work; gob deep-copies them on encode).
func batchSnapshot(work *dataframe.Table, jcs []joinedCandidate, tables []string, newCols int) ([]addedCandidate, *dataframe.Table, []string, int) {
	added := make([]addedCandidate, 0, len(jcs))
	t := dataframe.MustNewTable("added")
	for _, a := range jcs {
		added = append(added, addedCandidate{Ordinal: a.ordinal, Name: a.name, Prefix: a.prefix, Cols: a.cols})
		for _, name := range a.cols {
			if col := work.Column(name); col != nil {
				// Prefixes make the names unique, so AddColumn cannot fail.
				_ = t.AddColumn(col)
			}
		}
	}
	return added, t, tables, newCols
}

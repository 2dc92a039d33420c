package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

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

// verdicts is the payload of every checkpoint shard: what the run has decided
// so far, as pointers into the run — a save encodes them as they stand, a
// load decodes them back into place. Shards are taken only after the stages
// that decide something (screen when it had to choose, select, evaluate), and
// resume loads only the last one. Everything else replays from the inputs,
// which the fingerprint guarantees are unchanged — the candidate list, the
// attrition counts and every table, Result.Table included — or belongs to the
// process that ran it (Elapsed, SelectionElapsed, Trace). gob refuses a
// *dataframe.Table, so a table put in here fails every save.
type verdicts struct {
	Screened              *[]ScreenedTable
	Quarantined           *[]QuarantinedCandidate
	KeptByCandidate       *[][]string
	BaseScore, FinalScore *float64
	EstimatorName         *string
	Significance          **eval.SignificanceResult
}

func (r *run) verdicts() *verdicts {
	res := &r.res
	return &verdicts{&res.Screened, &res.Quarantined, &r.kept,
		&res.BaseScore, &res.FinalScore, &res.EstimatorName, &res.Significance}
}

// runFingerprint digests everything that determines a run's output: the base
// table, every candidate (table contents, keys, score, kind flags), and the
// semantic options. Workers, Timeout, CheckpointDir/Resume, and the
// observability and fault-injection hooks are deliberately excluded — a
// checkpointed run may be resumed at a different worker count, under a
// different timeout, or with different logging, and still produce the
// identical Result. The leading version tag is bumped whenever the option
// set, an option's numbering or the shards' gob layout (verdicts) changes: gob
// zero-fills fields it does not find, and an enum is hashed as its number,
// so a shard written by an older binary must surface as
// ErrCheckpointMismatch, never as a silent partial decode or another
// strategy's state.
func runFingerprint(base *dataframe.Table, cands []discovery.Candidate, o *Options) string {
	h := fnv.New64a()
	writeU64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	selector := ""
	if o.Selector != nil {
		selector = o.Selector.Name()
	}
	fmt.Fprintf(h, "v7|target=%s|coreset=%d/%d|tau=%g|soft=%d|noresample=%t|seed=%d|sig=%d|sel=%s|customest=%t|",
		o.Target, o.CoresetStrategy, o.CoresetSize, o.TupleRatioTau, o.SoftMethod,
		o.DisableTimeResample, o.Seed, o.Significance, selector, o.Estimator != nil)
	writeU64(base.Digest())
	writeU64(uint64(len(cands)))
	for _, c := range cands {
		writeU64(c.Table.Digest())
		for _, k := range c.Keys {
			fmt.Fprintf(h, "%s>%s/%d|", k.BaseColumn, k.ForeignColumn, k.Kind)
		}
		writeU64(math.Float64bits(c.Score))
		fmt.Fprintf(h, "soft=%t|", c.Soft)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openLog sets up the checkpoint log per the options: none when durability
// is off, a fresh log otherwise, and — under Resume — the prior run's log,
// with its last shard's verdicts restored and doneRank marking how far it
// got. An empty directory under Resume starts fresh rather than erroring;
// corrupt or mismatched state is a typed error, never a silent partial reuse.
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
		r.ck, err = checkpoint.Create(o.CheckpointDir, fp)
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
	if err := r.ck.Load(entry.Seq, r.verdicts()); err != nil {
		return err
	}
	r.doneRank = stageRank(entry.Stage)
	r.res.ResumedFrom = entry.Stage
	o.logf("resuming from checkpoint %s (%d stages on disk)", entry.Stage, entry.Seq+1)
	return nil
}

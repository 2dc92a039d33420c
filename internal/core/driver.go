package core

import (
	"context"
	"fmt"
	"math"

	"github.com/arda-ml/arda/internal/dataframe"
)

// stage is one row of the stage table. A stage is a method over the run: it
// reads what earlier stages left there, adds its output to the cumulative
// state, closes its span by defer, and returns an error where it cannot go
// on. Whether to run at all, the checkpoint, the interrupt check at the
// boundary and the one exit are the driver's.
type stage struct {
	// name is the stage's span, latency histogram and checkpoint name.
	name string
	// replay stages are cheap and deterministic given the fingerprinted
	// inputs and what they stored, so a resumed run executes them again
	// rather than restoring their output.
	replay bool
	// seed derives the RNG seed the stage runs under, recorded with its
	// checkpoint for replay diagnostics; nil for stages that draw nothing.
	seed func(runSeed int64, batch int) int64
	// run executes the stage (batch is -1 outside the per-batch group) and
	// reports whether it reached a boundary worth a snapshot.
	run func(r *run, ctx context.Context, batch int) (bool, error)
}

// stageTable is the single definition of the pipeline's stages and their
// order (§3 of the paper, Fig. 1): the driver, stageRank and the
// pre-registered stage histograms all read it.
var stageTable = []stage{
	{name: "prefilter", replay: true, run: (*run).prefilter},
	{name: "coreset", seed: seedPath(seedStageCoreset), run: (*run).coreset},
	{name: "screen", replay: true, seed: seedPath(seedStageScreen), run: (*run).screen},
	{name: "join", seed: seedPath(seedStageJoin), run: (*run).joinBatch},
	{name: "impute", seed: seedPath(seedStageImpute), run: (*run).imputeBatch},
	{name: "select", seed: selectSeed, run: (*run).selectBatch},
	{name: "materialize", seed: seedPath(seedStageFinal), run: (*run).materialize},
	{name: "evaluate", run: (*run).evaluate},
}

// seedPath is the seed of a stage whose RNGs hang off (tag) or, per batch,
// (tag, batch).
func seedPath(tag int64) func(int64, int) int64 {
	return func(runSeed int64, batch int) int64 {
		if batch < 0 {
			return stageSeed(runSeed, tag)
		}
		return stageSeed(runSeed, tag, int64(batch))
	}
}

// stageTable[batchLo:batchHi] is the per-batch group: it repeats per plan
// batch under a "batch" span, and its boundaries read "name[b]".
const batchLo, batchHi = 3, 6

// stageRank linearizes the stage sequence so "how far did the run get" is a
// single comparison: table order, with the per-batch group repeating per
// batch ordinal and the stages after it above every batch; -1 for a name the
// table does not have.
func stageRank(name string, batch int) int {
	for i, s := range stageTable {
		switch {
		case s.name != name:
		case i < batchLo:
			return i
		case i < batchHi:
			return i + batch*(batchHi-batchLo)
		default:
			return math.MaxInt32 - (len(stageTable) - 1 - i)
		}
	}
	return -1
}

// done reports whether the resumed snapshot covers the stage of that batch.
func (r *run) done(s *stage, batch int) bool { return r.doneRank >= stageRank(s.name, batch) }

// execute drives the stage table in order. The join plan, a pure function of
// the screened candidate list, is rebuilt where the per-batch group begins.
func (r *run) execute(ctx context.Context) error {
	for i := range stageTable {
		var err error
		switch {
		case i < batchLo || i >= batchHi:
			err = r.step(ctx, i, -1)
		case i == batchLo:
			r.buildPlan()
			for b := 0; b < len(r.plan) && err == nil; b++ {
				err = r.batch(ctx, b)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// step is the driver's contract for one stage at one position. A stage the
// resumed snapshot covers is skipped — its output is already in the
// cumulative state — unless it is a replay stage. Otherwise the context is
// checked at the boundary before it, the stage runs, and it is checkpointed
// outside its span, unless it reports nothing worth a snapshot or the one on
// disk is already past it.
func (r *run) step(ctx context.Context, i, batch int) error {
	s := &stageTable[i]
	done := r.done(s, batch)
	if done && !s.replay {
		return nil
	}
	if err := interruptOf(ctx); err != nil {
		return err
	}
	save, err := s.run(r, ctx, batch)
	if save && !done && err == nil {
		r.save(s, batch)
	}
	return err
}

// batch runs the per-batch group once. work starts as Accum's own column
// objects; a batch resumed past its join gets the snapshot's added columns
// back on top — the aliasing an uninterrupted run has there. A batch left
// with no joined candidate offers selection nothing and ends early.
func (r *run) batch(ctx context.Context, b int) error {
	if r.done(&stageTable[batchHi-1], b) {
		return nil
	}
	r.batchSpan = r.tr.Root().Child("batch", b)
	defer r.batchSpan.End()
	accum := r.st.Accum
	cols := accum.Columns()
	if added := r.st.Batch.AddedCols; r.done(&stageTable[batchLo], b) && added != nil {
		cols = append(cols[:len(cols):len(cols)], added.Columns()...)
	}
	var err error
	if r.work, err = dataframe.NewTable(accum.Name(), cols...); err != nil {
		return fmt.Errorf("core: restoring batch columns: %w", err)
	}
	for i := batchLo; i < batchHi; i++ {
		if err := r.step(ctx, i, b); err != nil {
			return err
		}
		if len(r.st.Batch.Joined) == 0 {
			r.st.Batch = batchState{}
			return nil
		}
	}
	return nil
}

// save snapshots the cumulative state at the boundary after stage s. A
// failed write — fenced, injected or real — never fails the run: durability
// degrades, the run continues.
func (r *run) save(s *stage, batch int) {
	if r.ck == nil {
		return
	}
	var seed int64
	if s.seed != nil {
		seed = s.seed(r.opts.Seed, batch)
	}
	// The fencing guard runs before anything touches disk: a stale owner
	// (lease lost to another process) must not write into a checkpoint log
	// the new owner is appending to. The run itself is aborted at its next
	// cancellation point; here the write is only refused.
	var err error
	if guard := r.opts.CheckpointGuard; guard != nil {
		err = guard()
	}
	if err == nil {
		err = faultAt(r.opts.FaultInjector, "checkpoint.write", len(r.ck.Entries()))
	}
	if err == nil {
		err = r.ck.Save(s.name, batch, seed, &r.st)
	}
	if err != nil {
		r.tr.Counter("checkpoint.write_failures").Add(1)
		r.opts.logf("checkpoint: skipping %s snapshot: %v", s.name, err)
		return
	}
	r.tr.Counter("checkpoint.saved").Add(1)
}

package core

import (
	"context"
)

// stage is one row of the stage table. A stage is a method over the run: it
// reads what earlier stages left there, adds its output to the run, closes
// its span by defer, and returns an error where it cannot go on. Whether to
// run at all, the checkpoint, the interrupt check at the boundary and the one
// exit are the driver's.
type stage struct {
	// name is the stage's span, latency histogram and checkpoint name.
	name string
	// replay stages build what no shard stores — the candidate list and the
	// tables — deterministically from the fingerprinted inputs and the stored
	// verdicts, so a resumed run executes them again.
	replay bool
	// run executes the stage and reports whether it reached a verdict worth
	// a snapshot.
	run func(r *run, ctx context.Context) (bool, error)
}

// stageTable is the single definition of the pipeline's stages and their
// order (§3 of the paper, Fig. 1): the driver, stageRank and the
// pre-registered stage histograms all read it.
var stageTable = []stage{
	{name: "prefilter", replay: true, run: (*run).prefilter},
	{name: "coreset", replay: true, run: (*run).coreset},
	{name: "screen", replay: true, run: (*run).screen},
	{name: "join", run: (*run).join},
	{name: "impute", run: (*run).impute},
	{name: "select", run: (*run).selectFeatures},
	{name: "materialize", replay: true, run: (*run).materialize},
	{name: "evaluate", run: (*run).evaluate},
}

// stageRank is the stage's position in the table, so "how far did the run
// get" is a single comparison; -1 for a name the table does not have.
func stageRank(name string) int {
	for i, s := range stageTable {
		if s.name == name {
			return i
		}
	}
	return -1
}

// execute drives the stage table in order. A stage the resumed shard covers
// is skipped — nothing after it reads what it built — unless it is a replay
// stage. Otherwise the context is checked at the boundary before it, the
// stage runs, and it is checkpointed outside its span, unless it reports
// nothing worth a snapshot or the shard on disk is already past it.
func (r *run) execute(ctx context.Context) error {
	for i := range stageTable {
		s := &stageTable[i]
		done := r.doneRank >= i
		if done && !s.replay {
			continue
		}
		if err := interruptOf(ctx); err != nil {
			return err
		}
		r.replaying = done
		save, err := s.run(r, ctx)
		if err != nil {
			return err
		}
		if save && !done {
			r.save(s.name)
		}
	}
	return nil
}

// save snapshots the run's verdicts at the boundary after the named stage. A
// failed write — fenced, injected or real — never fails the run: durability
// degrades, the run continues.
func (r *run) save(stage string) {
	if r.ck == nil {
		return
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
		err = r.ck.Save(stage, r.verdicts())
	}
	if err != nil {
		r.tr.Counter("checkpoint.write_failures").Add(1)
		r.opts.logf("checkpoint: skipping %s snapshot: %v", stage, err)
		return
	}
	r.tr.Counter("checkpoint.saved").Add(1)
}

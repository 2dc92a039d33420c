package core

import (
	"context"
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
	seed func(runSeed int64) int64
	// run executes the stage and reports whether it reached a boundary worth
	// a snapshot.
	run func(r *run, ctx context.Context) (bool, error)
}

// stageTable is the single definition of the pipeline's stages and their
// order (§3 of the paper, Fig. 1): the driver, stageRank and the
// pre-registered stage histograms all read it.
var stageTable = []stage{
	{name: "prefilter", replay: true, run: (*run).prefilter},
	{name: "coreset", seed: seedPath(seedStageCoreset), run: (*run).coreset},
	{name: "screen", replay: true, seed: seedPath(seedStageScreen), run: (*run).screen},
	{name: "join", seed: seedPath(seedStageJoin, 0), run: (*run).join},
	{name: "impute", seed: seedPath(seedStageImpute, 0), run: (*run).impute},
	{name: "select", seed: selectSeed, run: (*run).selectFeatures},
	{name: "materialize", seed: seedPath(seedStageFinal), run: (*run).materialize},
	{name: "evaluate", run: (*run).evaluate},
}

// seedPath is the seed of a stage whose RNGs hang off the path ids.
func seedPath(ids ...int64) func(int64) int64 {
	return func(runSeed int64) int64 { return stageSeed(runSeed, ids...) }
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

// execute drives the stage table in order. A stage the resumed snapshot
// covers is skipped — its output is already in the cumulative state — unless
// it is a replay stage. Otherwise the context is checked at the boundary
// before it, the stage runs, and it is checkpointed outside its span, unless
// it reports nothing worth a snapshot or the one on disk is already past it.
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
		save, err := s.run(r, ctx)
		if err != nil {
			return err
		}
		if save && !done {
			r.save(s)
		}
	}
	return nil
}

// save snapshots the cumulative state at the boundary after stage s. A
// failed write — fenced, injected or real — never fails the run: durability
// degrades, the run continues.
func (r *run) save(s *stage) {
	if r.ck == nil {
		return
	}
	var seed int64
	if s.seed != nil {
		seed = s.seed(r.opts.Seed)
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
		err = r.ck.Save(s.name, seed, &r.st)
	}
	if err != nil {
		r.tr.Counter("checkpoint.write_failures").Add(1)
		r.opts.logf("checkpoint: skipping %s snapshot: %v", s.name, err)
		return
	}
	r.tr.Counter("checkpoint.saved").Add(1)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/retry"
)

// Typed interruption sentinels: AugmentContext returns one of these (test
// with errors.Is) together with a partial Result snapshot when its context
// is canceled or its deadline passes mid-run.
var (
	// ErrCanceled reports a run stopped by context cancellation.
	ErrCanceled = errors.New("core: augmentation canceled")
	// ErrDeadline reports a run stopped by a context deadline (including
	// Options.Timeout).
	ErrDeadline = errors.New("core: augmentation deadline exceeded")
)

// Per-candidate retry policy for faults classified transient: a handful of
// quick deterministic attempts. The backoff is tiny because the faults being
// retried (injected transients, momentary resource blips) either clear
// immediately or keep failing — a long ladder would just stall the batch.
var candidateRetry = retry.Policy{Attempts: 3, Base: time.Millisecond}

// mapInterrupt reduces a cancellation or deadline error — raw from the
// context or already typed, however a stage wrapped it — to the bare typed
// sentinel, passing nil and other errors through.
func mapInterrupt(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrDeadline):
		return ErrDeadline
	case errors.Is(err, context.Canceled), errors.Is(err, ErrCanceled):
		return ErrCanceled
	}
	return err
}

// isInterrupt reports whether err stems from cancellation or a deadline
// rather than from the work itself.
func isInterrupt(err error) bool {
	err = mapInterrupt(err)
	return err == ErrCanceled || err == ErrDeadline
}

// interruptOf is the context's state as a typed sentinel: nil while the
// context is live (or nil).
func interruptOf(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return mapInterrupt(ctx.Err())
}

// recoveredError converts a recovered panic value into an error, keeping
// error panic values unwrappable (so an injected transient panic still
// classifies as transient and retries).
func recoveredError(v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("core: recovered panic: %w", err)
	}
	return fmt.Errorf("core: recovered panic: %v", v)
}

// faultAt probes the fault injector at (stage, ordinal) with panic
// containment, so a Panic-kind fault at a non-join site quarantines the
// candidate instead of crashing the run. Nil injectors are free.
func faultAt(inj *faults.Injector, stage string, ordinal int) (err error) {
	if inj == nil {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			err = recoveredError(v)
		}
	}()
	return inj.Check(stage, ordinal)
}

// guardedJoin joins cand onto left inside the full fault boundary: injector
// checkpoint, panic containment, and transient-fault retry. An empty
// candidate can only contribute all-NULL columns, so it is refused before it
// wastes a join (or an injector probe). The RNG is re-derived from seedPath
// for every attempt — it is attempt-local state, so a retried join draws
// exactly the sequence a first-try success would and the output stays
// bit-identical.
func guardedJoin(ctx context.Context, o *Options, prep *join.PrepCache, stage string, ordinal int,
	left *dataframe.Table, cand discovery.Candidate, prefix string, seedPath ...int64) (*join.Result, error) {
	if cand.Table.NumRows() == 0 {
		return nil, errors.New("candidate table is empty")
	}
	spec := specFor(cand, *o, prefix)
	var jr *join.Result
	err := retry.Do(ctx, candidateRetry, faults.IsTransient, func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = recoveredError(v)
			}
		}()
		if err := o.FaultInjector.Check(stage, ordinal); err != nil {
			return err
		}
		jr, err = join.ExecuteCached(left, cand.Table, spec, stageRNG(o.Seed, seedPath...), prep)
		return err
	})
	return jr, err
}

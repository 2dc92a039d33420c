package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/testenv"
)

// TestCancelDuringJoin slows every join checkpoint with delay faults,
// cancels mid-join, and asserts the run returns promptly (far sooner than
// draining the remaining candidates), with the typed ErrCanceled, a partial
// result snapshot, and no leaked goroutines.
func TestCancelDuringJoin(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := chaosCorpus(t)

	const perJoin = 30 * time.Millisecond
	opts := chaosOptions(corpus, 4, faults.New(1,
		faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: perJoin}))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * perJoin)
		cancel()
	}()
	start := time.Now()
	res, err := AugmentContext(ctx, corpus.Base, cands, opts)
	elapsed := time.Since(start)

	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AugmentContext = %v, want ErrCanceled", err)
	}
	if res == nil || res.CandidatesConsidered == 0 {
		t.Fatalf("no partial result snapshot: %+v", res)
	}
	if res.Table != nil {
		t.Fatal("interrupted run must not claim a final table")
	}
	// Draining the queue would cost ~(candidates × perJoin); the join loop
	// checks the context per candidate, so the run must stop well short.
	planned := res.CandidatesDeduped - res.CandidatesFiltered
	drain := time.Duration(planned) * perJoin
	if planned > 8 && elapsed > drain/2 {
		t.Fatalf("canceled run took %v, drain would be %v — not prompt", elapsed, drain)
	}
}

// TestTimeoutDuringJoin is the Options.Timeout variant: the deadline fires
// mid-join and surfaces as the typed ErrDeadline.
func TestTimeoutDuringJoin(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := chaosCorpus(t)

	opts := chaosOptions(corpus, 4, faults.New(1,
		faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 30 * time.Millisecond}))
	opts.Timeout = 75 * time.Millisecond

	res, err := AugmentContext(context.Background(), corpus.Base, cands, opts)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("AugmentContext = %v, want ErrDeadline", err)
	}
	if res == nil {
		t.Fatal("no partial result snapshot")
	}
}

// TestCancelDuringSelection cancels as soon as RIFS starts scoring subsets
// with the run estimator and asserts the typed error, a partial snapshot,
// and no leaked goroutines. In-flight estimator fits complete (the pool
// never aborts a started work item) but no further subsets are claimed.
func TestCancelDuringSelection(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := chaosCorpus(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	inner := fastEstimator(1)
	opts := chaosOptions(corpus, 4, nil)
	opts.Estimator = eval.Fitter(func(ds *ml.Dataset) ml.Model {
		once.Do(cancel) // first estimator fit = selection has started
		return inner(ds)
	})
	opts.Trace = obs.New("augment")

	res, err := AugmentContext(ctx, corpus.Base, cands, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AugmentContext = %v, want ErrCanceled", err)
	}
	if res == nil || res.Trace == nil || res.Table != nil || len(res.KeptColumns) != 0 {
		t.Fatalf("selection was canceled; the partial result should hold a trace, no table and no kept column: %+v", res)
	}
	// The counter is added only once the selector has returned: a selection
	// that ignored the cancel and ran to the end would have added it.
	if offered := res.Trace.Counters["select.features_offered"]; offered != 0 {
		t.Fatalf("select.features_offered = %d after a cancel during selection, want 0", offered)
	}
}

// TestCanceledBeforeStart: an already-canceled context stops the run at the
// first checkpoint with the typed error.
func TestCanceledBeforeStart(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus, cands := chaosCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AugmentContext(ctx, corpus.Base, cands, chaosOptions(corpus, 2, nil))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AugmentContext = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("no partial result snapshot")
	}
}

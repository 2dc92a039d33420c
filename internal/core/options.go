// Package core implements the end-to-end ARDA pipeline (§3 of the paper) as
// eight stages: optional Tuple-Ratio prefiltering, coreset construction over
// the base table, a screen that passes on only as many candidate tables as
// one selection round can rank on that coreset, the join of those tables
// onto the coreset, imputation, one feature-selection round over every
// joined feature (RIFS by default), materialization of the kept features
// over the full base table, and the final model estimate.
package core

import (
	"fmt"
	"time"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// Options configures an ARDA run.
type Options struct {
	// Target is the base-table column to predict. Required.
	Target string
	// CoresetStrategy selects the row-reduction method (§3.1); default
	// Uniform.
	CoresetStrategy coreset.Strategy
	// CoresetSize is the number of coreset rows; 0 picks
	// coreset.DefaultSize.
	CoresetSize int
	// Selector is the feature-selection method; nil defaults to RIFS.
	Selector featsel.Selector
	// Estimator scores candidate subsets during selection; nil defaults to
	// the lightly-optimized random forest.
	Estimator eval.Fitter
	// TupleRatioTau enables Kumar et al.'s Tuple-Ratio prefilter when > 0:
	// candidate tables with nS/nR > τ are dropped before joining (§7.3).
	TupleRatioTau float64
	// SoftMethod selects how soft keys are matched; default TwoWayNearest.
	SoftMethod join.SoftMethod
	// TimeResample aggregates finer-grained foreign time keys to the base
	// granularity before joining; default true (set DisableTimeResample to
	// turn off).
	DisableTimeResample bool
	// Seed drives every random choice in the run. Each stage (coreset
	// sampling, each join, each imputation, selection) derives its own RNG
	// from the seed by deterministic splitting, so results depend only on the
	// seed — never on execution order or the worker count.
	Seed int64
	// Workers caps the process-wide worker pool used by the parallel stages
	// (RIFS repetitions, forests, leverage scores, linalg kernels); 0 keeps
	// the current cap (GOMAXPROCS by default). The cap only affects speed: a
	// run's output is bit-identical for any value.
	Workers int
	// Significance runs a paired bootstrap test of the final augmentation
	// against the base table (§9 "statistical significance tests for
	// augmented features"); the value is the number of bootstrap resamples
	// (0 disables).
	Significance int
	// CheckpointDir, when set, makes the run durable: after the stages that
	// decide something (screen when it had to choose, select, evaluate) the
	// run's verdicts are saved crash-safely into this directory via
	// internal/checkpoint. A process killed at any instant leaves the
	// directory holding the last saved verdicts; rerunning with Resume
	// rebuilds the tables from them and continues. Unset (the default)
	// costs nothing.
	CheckpointDir string
	// Resume continues a prior run from the checkpoints in CheckpointDir.
	// The recorded fingerprint — a digest of the base table, every candidate,
	// and all semantic options (Workers, Timeout, and observability hooks are
	// excluded) — must match this run's, otherwise ErrCheckpointMismatch;
	// damaged checkpoint bytes yield ErrCheckpointCorrupt. An empty
	// CheckpointDir with Resume set simply starts fresh. A resumed run's
	// Result is bit-identical to an uninterrupted run at any worker count.
	Resume bool
	// CheckpointGuard, when set alongside CheckpointDir, is consulted
	// immediately before every checkpoint write; a non-nil return skips the
	// write (counted as a write failure, never fatal — the run continues).
	// The multi-process daemon passes a lease-fencing probe here so a stale
	// owner whose run was taken over cannot corrupt the new owner's
	// checkpoint log. Like the observability hooks, it is excluded from the
	// resume fingerprint.
	CheckpointGuard func() error
	// Timeout bounds the run's wall-clock duration when > 0: AugmentContext
	// derives a deadline from it (and Augment from context.Background()), and
	// a run that exceeds it stops at the next checkpoint with ErrDeadline and
	// a partial Result. 0 means no timeout.
	Timeout time.Duration
	// FaultInjector, when set, fires deterministic faults (errors, panics,
	// delays) at the pipeline's per-candidate checkpoints — the chaos-testing
	// hook. Faulted candidates are quarantined, not fatal. nil (the default)
	// makes every checkpoint a free no-op.
	FaultInjector *faults.Injector
	// Logf, when set, receives progress lines (screen, selection,
	// materialization) during the run.
	Logf func(format string, args ...any)
	// Trace, when set, receives hierarchical stage spans (prefilter, coreset,
	// screen, join, impute, select, materialize, evaluate) and run
	// counters. Create one obs.Trace per run. Tracing only observes: output is
	// bit-identical with Trace nil (the default, which costs nothing) or set.
	// Whenever Augment returns a Result — complete, or partial beside an
	// error (cancellation, timeout, a failing stage) — it has finished the
	// trace: open spans are closed at their partial durations, the sinks
	// flushed, and Result.Trace holds the snapshot, so interrupted and failed
	// runs still leave valid -trace files and terminated event streams. Only
	// a nil Result (options or checkpoint-open errors, before the pipeline
	// starts) leaves the trace unfinished for the caller.
	Trace *obs.Trace
}

// logf forwards to Options.Logf when configured.
func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// validate applies defaults and checks requirements against the base table.
func (o *Options) validate(base *dataframe.Table) error {
	if o.Target == "" {
		return fmt.Errorf("core: Options.Target is required")
	}
	if base.Column(o.Target) == nil {
		return fmt.Errorf("core: base table %q has no target column %q", base.Name(), o.Target)
	}
	if o.Selector == nil {
		o.Selector = &featsel.RIFS{}
	}
	if o.Resume && o.CheckpointDir == "" {
		return fmt.Errorf("core: Options.Resume requires Options.CheckpointDir")
	}
	return nil
}

// TaskOf infers the learning task from the target column: categorical
// targets yield classification, numeric/time targets regression.
func TaskOf(base *dataframe.Table, target string) (ml.Task, int, error) {
	c := base.Column(target)
	if c == nil {
		return 0, 0, fmt.Errorf("core: base table %q has no target column %q", base.Name(), target)
	}
	if cc, ok := c.(*dataframe.CategoricalColumn); ok {
		return ml.Classification, cc.Cardinality(), nil
	}
	return ml.Regression, 0, nil
}

// QuarantinedCandidate records one candidate table isolated by the fault
// boundary: instead of failing the run, the candidate was dropped at the
// named stage and the run continued without it.
type QuarantinedCandidate struct {
	// Name is the candidate table's name.
	Name string
	// Stage is the pipeline stage that faulted: "screen", "join", "impute",
	// "encode", or "materialize".
	Stage string
	// Reason is the fault description (error text or recovered panic).
	Reason string
}

// Result is the output of an ARDA run.
type Result struct {
	// Table is the full base table with every kept feature column appended
	// and imputed.
	Table *dataframe.Table
	// KeptColumns lists the augmentation columns in Table beyond the base.
	KeptColumns []string
	// KeptTables lists foreign tables that contributed at least one kept
	// column, deduplicated, in first-contribution order.
	KeptTables []string
	// BaseScore and FinalScore are holdout scores of the final estimator on
	// the base table alone and on the augmented table.
	BaseScore, FinalScore float64
	// EstimatorName names the winning final estimator.
	EstimatorName string
	// Quarantined lists candidates isolated by the fault boundary (malformed
	// tables, empty tables, injected faults), in quarantine order. A
	// quarantined candidate contributes nothing to Table; everything else in
	// the run is unaffected by its failure.
	Quarantined []QuarantinedCandidate
	// CandidatesConsidered, CandidatesDeduped, and CandidatesFiltered report
	// the prefilter attrition: candidates as passed in, remaining after
	// deduplication, and removed by the Tuple-Ratio prefilter (so the count
	// entering the screen stage is CandidatesDeduped - CandidatesFiltered).
	CandidatesConsidered, CandidatesDeduped, CandidatesFiltered int
	// CandidatesScreened is the number of candidates the screen stage took
	// out — ranked below the cut, or quarantined there — so the count
	// entering the join is CandidatesDeduped - CandidatesFiltered -
	// CandidatesScreened. 0 when every candidate's features fit the coreset.
	CandidatesScreened int
	// Screened is the screen stage's verdict on every candidate it scored, in
	// candidate order: estimated features, score, kept or dropped. nil when
	// the candidates fit and the stage scored nothing.
	Screened []ScreenedTable
	// Elapsed is the total wall-clock duration.
	Elapsed time.Duration
	// SelectionElapsed is the time spent inside feature selection.
	SelectionElapsed time.Duration
	// ResumedFrom names the checkpoint stage the run continued from
	// ("screen", "select" or "evaluate") when Options.Resume found usable
	// state; empty for a run executed start to finish.
	ResumedFrom string
	// Significance holds the paired bootstrap comparison of the augmented
	// model against the base model when Options.Significance > 0.
	Significance *eval.SignificanceResult
	// Trace is the finished observability snapshot — the stage-cost span
	// tree plus run counters — when Options.Trace was set; nil otherwise.
	// Render it with Trace.Render() or aggregate with Trace.StageTotals().
	Trace *obs.RunStats
}

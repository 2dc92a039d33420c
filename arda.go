// Package arda is an automatic relational data augmentation system, a Go
// implementation of "ARDA: Automatic Relational Data Augmentation for
// Machine Learning" (Chepurko et al., VLDB 2020).
//
// Given a base table with a prediction target and a repository of candidate
// tables, ARDA discovers candidate joins, screens them down to what one
// selection round can rank on a coreset of the base table, executes them
// against that coreset, prunes the resulting features by
// comparing them against injected random noise (RIFS), and returns the base
// table augmented with exactly the features that improve a downstream model.
//
// The minimal flow:
//
//	base, _ := arda.ReadCSVFile("taxi.csv")
//	repo, _ := arda.LoadCSVDir("repository/")
//	cands := arda.Discover(base, repo, "collisions")
//	res, _ := arda.Augment(base, cands, arda.Options{Target: "collisions"})
//	fmt.Println(res.BaseScore, res.FinalScore)
//	res.Table.WriteCSVFile("augmented.csv")
package arda

import (
	"context"
	"io"

	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/obs"
)

// Table is a named, typed columnar table — the unit of data ARDA operates
// on. Construct one with ReadCSVFile/ReadCSV or dataframe constructors.
type Table = dataframe.Table

// Column is one typed column of a Table.
type Column = dataframe.Column

// Candidate is a proposed join from the base table into a repository table.
type Candidate = discovery.Candidate

// Options configures an augmentation run; only Target is required.
type Options = core.Options

// Result is the outcome of an augmentation run: the augmented table, the
// kept columns and tables, and base-vs-final holdout scores.
type Result = core.Result

// QuarantinedCandidate records one candidate table isolated by the fault
// boundary instead of failing the run (see Result.Quarantined).
type QuarantinedCandidate = core.QuarantinedCandidate

// ScreenedTable is the screen stage's verdict on one candidate table: its
// score on the coreset, what it would cost of one selection round, and
// whether it went on to the join (see Result.Screened).
type ScreenedTable = core.ScreenedTable

// Typed interrupt errors. An Augment run stopped by cancellation or an
// Options.Timeout deadline returns one of these (test with errors.Is)
// together with a partial Result snapshot of the work completed so far.
var (
	ErrCanceled = core.ErrCanceled
	ErrDeadline = core.ErrDeadline
)

// Typed checkpoint errors. A run with Options.Resume set returns one of
// these (test with errors.Is) when the directory's saved state cannot be
// reused: corrupt bytes, or a checkpoint recorded for different inputs or
// options. The clean fallback is rerunning without Resume, which sweeps the
// stale state and starts fresh.
var (
	ErrCheckpointCorrupt  = core.ErrCheckpointCorrupt
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// FaultInjector fires deterministic, seeded faults at the pipeline's
// per-candidate checkpoints — the chaos-testing hook behind
// Options.FaultInjector. Construct one with NewFaultInjector.
type FaultInjector = faults.Injector

// FaultRule describes one fault to inject: which stage and candidate
// ordinal it targets, what kind of fault fires, and whether it is
// transient (retried) or hard (quarantined).
type FaultRule = faults.Rule

// Fault kinds for FaultRule.Kind.
const (
	FaultError = faults.Error
	FaultPanic = faults.Panic
	FaultDelay = faults.Delay
)

// NewFaultInjector builds a deterministic fault injector: the same seed and
// rules fire the same faults at the same (stage, ordinal) checkpoints on
// every run, independent of worker count.
func NewFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return faults.New(seed, rules...)
}

// Selector is a pluggable feature-selection method.
type Selector = featsel.Selector

// Method names a built-in feature-selection method.
type Method = featsel.Method

// Re-exported feature-selection methods (the paper's noise-filter lineup,
// Table 6 / Figure 6). RIFS is the default used by Augment when
// Options.Selector is nil.
const (
	RIFS         = featsel.MethodRIFS
	RandomForest = featsel.MethodForest
	FTest        = featsel.MethodFTest
	MutualInfo   = featsel.MethodMutual
	LinearSVC    = featsel.MethodLinearSVC
	Relief       = featsel.MethodRelief
	AllFeatures  = featsel.MethodAll
)

// SoftMethod selects how soft (proximity) keys are matched.
type SoftMethod = join.SoftMethod

// CoresetStrategy selects the row-reduction method.
type CoresetStrategy = coreset.Strategy

// Soft-join methods (§4).
const (
	TwoWayNearest   = join.TwoWayNearest
	NearestNeighbor = join.NearestNeighbor
	HardExact       = join.HardExact
)

// Coreset strategies (§3.1). CoresetLeverage is a specialized construction
// beyond the paper's uniform sampling: ridge leverage-score sampling that
// preferentially keeps influential rows.
const (
	CoresetUniform  = coreset.Uniform
	CoresetLeverage = coreset.Leverage
)

// ReadCSVFile loads one table from a CSV file with type inference; the table
// is named after the file.
func ReadCSVFile(path string) (*Table, error) { return dataframe.ReadCSVFile(path) }

// LoadCSVDir loads every *.csv file in dir as a table, sorted by name. Files
// are read in parallel on the shared worker pool; the result does not depend
// on the worker count.
func LoadCSVDir(dir string) ([]*Table, error) { return dataframe.ReadCSVDir(dir) }

// Discover proposes candidate joins from the base table into the repository,
// ranked by estimated relevancy. It plays the role of an external
// join-discovery system (Aurum, NYU Auctus); if you already have candidates
// from such a system, pass them to Augment directly.
func Discover(base *Table, repo []*Table, target string) []Candidate {
	return discovery.Discover(base, repo, target, discovery.Options{})
}

// Describe renders a per-column profile of the table: kinds, ranges,
// cardinalities, missing counts — a quick schema exploration aid.
func Describe(t *Table) string {
	return dataframe.FormatDescription(t.Name(), t.NumRows(), t.Describe())
}

// NewSelector constructs a built-in feature-selection method by name.
func NewSelector(m Method) (Selector, error) { return featsel.New(m) }

// RIFSConfig tunes random-injection feature selection (see featsel.RIFSConfig
// for field documentation); the zero value uses the paper's η = 0.2, K = 10
// and moment-matched injection, and ranks with the random forest alone
// (ν = 1). Nu: 0.5 restores the paper's forest + ℓ2,1 ensemble.
type RIFSConfig = featsel.RIFSConfig

// NewRIFS constructs a RIFS selector with explicit parameters. Use this to
// trade selection quality against speed (e.g. fewer repetitions K or smaller
// ranking forests on very large repositories).
func NewRIFS(cfg RIFSConfig) Selector { return &featsel.RIFS{Config: cfg} }

// Trace is the observability root of one Augment run: hierarchical stage
// spans plus run counters. Create one with NewTrace, set it on
// Options.Trace, and read the finished snapshot from Result.Trace.
type Trace = obs.Trace

// RunStats is a finished trace's snapshot: the stage-cost span tree and the
// final counter values. Render() draws the tree; StageTotals() aggregates
// durations by stage name.
type RunStats = obs.RunStats

// TraceSink consumes a trace's event stream (spans as they end, counters at
// the end of the run).
type TraceSink = obs.Sink

// TraceEvent is one record of the trace event stream — also the NDJSON line
// schema written by NewTraceWriter.
type TraceEvent = obs.Event

// NewTrace starts an augmentation trace streaming to the given sinks (none
// is fine: the in-memory tree in Result.Trace is always built). Create one
// trace per Augment call.
func NewTrace(sinks ...TraceSink) *Trace { return obs.New("augment", sinks...) }

// NewTraceCollector returns a sink buffering every trace event in memory.
func NewTraceCollector() *obs.Collector { return &obs.Collector{} }

// NewTraceWriter returns a sink streaming trace events to w as NDJSON, one
// event per line, written as spans end.
func NewTraceWriter(w io.Writer) *obs.NDJSONSink { return obs.NewNDJSONSink(w) }

// NewTraceFile returns a sink streaming trace events to path as NDJSON,
// published crash-safely: lines accumulate in path+".tmp" and are renamed
// over path when the trace finishes, so the final name only ever holds a
// complete trace. Check the error of the sink's Flush (called by
// Trace.Finish; Flush is idempotent) to confirm the publish.
func NewTraceFile(path string) (*obs.NDJSONFileSink, error) { return obs.NewNDJSONFileSink(path) }

// TraceHistogram is a lock-free power-of-two-bucket latency distribution;
// traces record one per stage and per-item span name automatically (plus
// per-tree fit and subset-score distributions during selection). Read them
// from RunStats.Histograms; Quantile estimates p50/p95/p99.
type TraceHistogram = obs.HistogramStat

// TraceStream is a live fan-out sink: every trace event is offered to all
// subscribers over bounded channels with per-subscriber drop accounting, and
// the first events are replayed to late subscribers — the substrate behind
// cmd/arda's /events endpoint and any streaming-progress consumer.
type TraceStream = obs.StreamSink

// NewTraceStream returns a live event bus whose replay buffer holds
// historyCap events (<= 0 selects a default that comfortably covers a full
// run). Wire it into NewTrace as a sink and read via Subscribe.
func NewTraceStream(historyCap int) *TraceStream { return obs.NewStreamSink(historyCap) }

// Augment runs the ARDA pipeline and returns the augmented table together
// with base-vs-augmented model scores. See Options for tuning knobs; the
// defaults follow the paper (uniform coreset, RIFS
// selection, two-way nearest-neighbour soft joins with time resampling).
func Augment(base *Table, cands []Candidate, opts Options) (*Result, error) {
	return core.Augment(base, cands, opts)
}

// AugmentContext is Augment under a context: cancellation and deadlines are
// honoured at every stage boundary and between parallel work items. An
// interrupted run returns ErrCanceled or ErrDeadline together with a partial
// Result snapshot, and so does a run whose stage fails for another reason
// (with that error); a nil Result means the pipeline never started.
// Options.Timeout, when set, additionally bounds the run's wall-clock time
// relative to the call.
func AugmentContext(ctx context.Context, base *Table, cands []Candidate, opts Options) (*Result, error) {
	return core.AugmentContext(ctx, base, cands, opts)
}

// AugmentRepository is the one-call convenience API: discover candidates in
// repo, then augment.
func AugmentRepository(base *Table, repo []*Table, opts Options) (*Result, error) {
	cands := Discover(base, repo, opts.Target)
	return core.Augment(base, cands, opts)
}

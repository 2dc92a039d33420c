package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/automl"
	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// Seed-splitting stage tags: every randomized pipeline stage derives its own
// rand.Rand from (Options.Seed, stage, ids...) instead of advancing one
// shared stream. A shared *rand.Rand threaded through the stages was a latent
// hazard — any reordering, skipped candidate, or concurrency silently changed
// every downstream draw — whereas derived per-stage RNGs keep each stage's
// randomness independent of what ran before it.
const (
	seedStageCoreset int64 = iota + 1
	seedStageJoin
	seedStageImpute
	seedStageSketch
	seedStageMaterialize
	seedStageFinal
	seedStageScreen
)

// stageSeed folds a stage/id path into the run seed via repeated seed
// splitting; stageRNG turns the result into an independent RNG. Split out so
// the seed-path uniqueness test exercises exactly the derivation the
// pipeline uses.
func stageSeed(seed int64, ids ...int64) int64 {
	for _, id := range ids {
		seed = parallel.SplitSeed(seed, id)
	}
	return seed
}

// stageRNG derives an independent RNG from the run seed and a stage/id path.
func stageRNG(seed int64, ids ...int64) *rand.Rand {
	return rand.New(rand.NewSource(stageSeed(seed, ids...)))
}

// Augment runs the full ARDA pipeline: prefilter and plan the candidate
// joins, execute them batch-by-batch against the coreset, select features
// against injected noise, materialize the kept features over the full base
// table, and report base-vs-augmented holdout scores.
func Augment(base *dataframe.Table, cands []discovery.Candidate, opts Options) (*Result, error) {
	return AugmentContext(context.Background(), base, cands, opts)
}

// AugmentContext is Augment under a context. Cancellation is cooperative:
// the context is checked at every stage boundary, before every candidate
// join, and inside the parallel loops of selection, so a canceled or
// deadline-bounded run stops promptly instead of draining its work queues.
// On interruption it returns the typed ErrCanceled or ErrDeadline together
// with a partial Result snapshot — the attrition counts, batch reports, and
// quarantine log accumulated so far (Result.Table and the scores are only
// set by a completed run) — and a stage that fails for any other reason
// returns its error with the same snapshot. Options.Timeout > 0 additionally
// bounds the run's wall-clock duration. The context only gates scheduling: a
// run that completes is bit-identical to the same run without a context.
// Whatever execute returns, this one exit finishes the trace (Options.Trace).
func AugmentContext(ctx context.Context, base *dataframe.Table, cands []discovery.Candidate, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.validate(base); err != nil {
		return nil, err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	r, err := newRun(base, cands, opts)
	if err != nil {
		return nil, err
	}
	err = mapInterrupt(r.execute(ctx))
	r.publishCacheStats()
	res := &r.st.Result
	res.Elapsed = time.Since(start)
	res.Trace = r.tr.Finish()
	return res, err
}

// run is one pipeline execution: what every stage reads, and the one
// cumulative state they all add to.
type run struct {
	base      *dataframe.Table
	opts      Options
	task      ml.Task
	classes   int
	estimator eval.Fitter

	// The cheap deterministic prefix, recomputed by every run: prefilter sets
	// size and narrows cands, screen narrows them again, and the plan and
	// everything after it index that list.
	cands []discovery.Candidate
	size  int
	plan  []Batch

	// Per-run caches: foreign-table preparations shared by screen, the batches
	// and materialize, binarize plans by the batches' re-encodings of carried
	// columns — valid because candidate tables are never mutated and work
	// tables only encoded fully imputed.
	prep *join.PrepCache
	enc  *dataframe.EncodeCache

	// Tracing only observes — spans and counters never feed back and draw no
	// randomness — and is a free no-op when Options.Trace is nil. batchSpan
	// parents the open batch's stage spans.
	tr        *obs.Trace
	batchSpan *obs.Span

	// ck is nil unless Options.CheckpointDir is set. Under Resume, st starts
	// as the last completed stage's snapshot and doneRank is that stage's
	// stageRank; -1 runs everything.
	ck       *checkpoint.Log
	doneRank int

	// work is the open batch's table: Accum's own column objects plus the
	// columns joined so far (the aliasing invariant in durability.go).
	work *dataframe.Table
	st   runState
}

// Pre-registered, so a live scrape (-metrics-addr) exposes every counter and
// latency distribution from its first request, not from the first bump. Ended
// spans feed the histogram of their name: the stage table names the stages'
// own, subStageHistograms the spans inside them, and its last two are fed
// below span granularity: select.tree_fit by every RIFS ranking-forest tree
// (the only trees it counts), select.subset_score by every subset a wrapper
// selector scores, RIFS's threshold sweep included, timing the whole fit and
// predict.
var (
	runCounters = []string{
		"join.rows_matched", "join.candidates_scored", "join.candidates_skipped",
		"select.features_offered", "select.features_kept",
		"quarantine.total", "checkpoint.saved", "checkpoint.write_failures",
	}
	subStageHistograms = []string{
		"batch", "join.cand", "select.rep", "rep.inject", "rep.forest", "rep.sparse",
		"rep.aggregate", "select.sweep", "materialize.cand",
		"select.tree_fit", "select.subset_score",
	}
)

// newRun resolves the task and estimator, registers the run's metrics and
// opens the checkpoint log. Its errors precede the pipeline: the caller gets
// no Result and an unfinished trace.
func newRun(base *dataframe.Table, cands []discovery.Candidate, opts Options) (*run, error) {
	task, classes, err := TaskOf(base, opts.Target)
	if err != nil {
		return nil, err
	}
	if !opts.Selector.Supports(task) {
		return nil, fmt.Errorf("core: selector %q does not support %s tasks", opts.Selector.Name(), task)
	}
	if opts.Workers > 0 {
		parallel.SetMaxWorkers(opts.Workers)
	}
	r := &run{
		base: base, opts: opts, task: task, classes: classes, estimator: opts.Estimator,
		cands: cands, prep: join.NewPrepCache(), enc: dataframe.NewEncodeCache(),
		tr: opts.Trace, doneRank: -1,
	}
	if r.estimator == nil {
		r.estimator = automl.DefaultEstimator(opts.Seed)
	}
	for _, name := range runCounters {
		r.tr.Counter(name)
	}
	for _, s := range stageTable {
		r.tr.Histogram(s.name)
	}
	for _, name := range subStageHistograms {
		r.tr.Histogram(name)
	}
	if err := r.openLog(); err != nil {
		return nil, err
	}
	r.st.Result.CandidatesConsidered = len(cands)
	return r, nil
}

// publishCacheStats sets the per-run caches' final figures as gauges.
func (r *run) publishCacheStats() {
	ps, es := r.prep.Stats(), r.enc.Stats()
	r.tr.Gauge("prep_cache.hits").Set(ps.Hits)
	r.tr.Gauge("prep_cache.misses").Set(ps.Misses)
	r.tr.Gauge("prep_cache.entries").Set(int64(r.prep.Len()))
	r.tr.Gauge("encode_cache.hits").Set(es.Hits)
	r.tr.Gauge("encode_cache.misses").Set(es.Misses)
	r.tr.Gauge("encode_cache.entries").Set(int64(r.enc.Len()))
}

// quarantine is the fault boundary's record: a candidate that faults is
// dropped at the named stage and logged, never fatal.
func (r *run) quarantine(name, stage string, reason error) {
	q := QuarantinedCandidate{Name: name, Stage: stage, Reason: reason.Error()}
	r.st.Result.Quarantined = append(r.st.Result.Quarantined, q)
	r.tr.Counter("quarantine.total").Add(1)
	r.tr.Counter("quarantine." + stage).Add(1)
	r.opts.logf("quarantine: %s at %s: %v", name, stage, reason)
}

// imputeTable applies the configured imputation strategy: kNN when enabled
// (falling back to simple imputation for anything kNN cannot fill), simple
// median/random otherwise.
func imputeTable(t *dataframe.Table, opts Options, rng *rand.Rand) {
	if opts.KNNImpute > 0 {
		join.KNNImpute(t, opts.KNNImpute)
	}
	join.Impute(t, rng)
}

// specFor builds the join spec for a candidate under the run options. Geo
// candidates override the run-wide soft method: they only make sense with
// GeoNearest matching.
func specFor(c discovery.Candidate, opts Options, prefix string) *join.Spec {
	method := opts.SoftMethod
	if c.Geo {
		method = join.GeoNearest
	}
	return &join.Spec{
		Keys:         c.Keys,
		Method:       method,
		Tolerance:    opts.Tolerance,
		TimeResample: !opts.DisableTimeResample,
		Prefix:       prefix,
	}
}

// sourceColumn maps a numeric-view feature name back to its table column:
// one-hot indicators "col=value" map to "col".
func sourceColumn(name string) string {
	if i := strings.LastIndex(name, "="); i > 0 {
		return name[:i]
	}
	return name
}

// DatasetOf converts a table into an ml.Dataset for the given target,
// one-hot-encoding categoricals and mean-filling any remaining NaNs.
func DatasetOf(t *dataframe.Table, target string, task ml.Task, classes int) (*ml.Dataset, error) {
	_, ds, err := encodeTable(t, nil, target, task, classes)
	return ds, err
}

// encodeTable is DatasetOf through an encode cache (nil for none), returning
// the numeric view beside the dataset so features can be named.
func encodeTable(t *dataframe.Table, cache *dataframe.EncodeCache, target string, task ml.Task, classes int) (*dataframe.NumericView, *ml.Dataset, error) {
	view := t.ToNumericViewCached(cache, target)
	y, err := t.TargetVector(target)
	if err != nil {
		return nil, nil, err
	}
	ds, err := ml.NewDataset(view.Data, view.Rows, view.Cols, y, task, classes)
	if err != nil {
		return nil, nil, err
	}
	ds.CleanNaNs()
	return view, ds, nil
}

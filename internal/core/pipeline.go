package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/automl"
	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
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
// set by a completed run). Options.Timeout > 0 additionally bounds the run's
// wall-clock duration. The context only gates scheduling: a run that
// completes is bit-identical to the same run without a context.
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
	// The default estimator is a forest whose shape the pipeline knows, so
	// ForestEstimatorAware selectors are told it; a caller-supplied Estimator
	// is opaque.
	estimator := opts.Estimator
	var estForest *ml.ForestConfig
	if estimator == nil {
		estimator = automl.DefaultEstimator(opts.Seed)
		fc := automl.DefaultForestConfig(opts.Seed)
		estForest = &fc
	}

	// Tracing is observational only: spans and counters never feed back into
	// the pipeline and draw no randomness, so every obs call below is a
	// no-op (and free) when opts.Trace is nil.
	tr := opts.Trace
	root := tr.Root()
	cRowsMatched := tr.Counter("join.rows_matched")
	cCandScored := tr.Counter("join.candidates_scored")
	cCandSkipped := tr.Counter("join.candidates_skipped")
	cFeatOffered := tr.Counter("select.features_offered")
	cFeatKept := tr.Counter("select.features_kept")
	// Pre-registered so metrics always carry the keys; RIFS adds to the
	// cache pair when the run-level split cache serves (or cold-builds)
	// presorted columns, and to the last when the sweep schedules nested
	// candidate forests as one cross-forest tree wave.
	tr.Counter("select.splitset_cache_hits")
	tr.Counter("select.splitset_cache_misses")
	tr.Counter("select.trees_scheduled")
	cQuarantined := tr.Counter("quarantine.total")
	cCkSaved := tr.Counter("checkpoint.saved")
	cCkFailed := tr.Counter("checkpoint.write_failures")
	// Latency histograms, pre-registered for the same reason: a live scrape
	// (`-metrics-addr`) must expose every stage's distribution from the first
	// request, not only after the stage first completes. Ended spans feed the
	// histogram of their name automatically; the last two are fed below span
	// granularity by ml tree fits and eval subset scoring.
	for _, h := range []string{
		"prefilter", "coreset", "screen", "batch", "join", "join.cand", "impute",
		"select", "select.rep", "select.sweep", "materialize",
		"materialize.cand", "evaluate", "select.tree_fit", "select.subset_score",
	} {
		tr.Histogram(h)
	}

	res := &Result{CandidatesConsidered: len(cands)}
	inj := opts.FaultInjector

	// Durability: ck is nil unless Options.CheckpointDir is set, and every
	// checkpoint call below no-ops on nil. Under Resume, rs holds the last
	// completed stage's cumulative state and doneRank its position in the
	// stage sequence; done() gates each region so the run re-executes only
	// what the snapshot does not already cover. The deterministic cheap
	// prefix (prefilter, plan, budget ladder) is always recomputed — the
	// fingerprint guarantees it comes out identical.
	ck, rs, resumeEntry, err := openRunLog(base, cands, &opts)
	if err != nil {
		return nil, err
	}
	doneRank := -1
	if resumeEntry != nil {
		doneRank = stageRank(resumeEntry.Stage, resumeEntry.Batch)
		res.ResumedFrom = stageLabel(*resumeEntry)
		res.Quarantined = rs.Quarantined
		res.Batches = rs.Batches
		res.SelectionElapsed = time.Duration(rs.SelectionNanos)
		opts.logf("resuming from checkpoint %s (%d stages on disk)", res.ResumedFrom, resumeEntry.Seq+1)
	}
	done := func(stage string, batch int) bool { return doneRank >= stageRank(stage, batch) }

	// Declared ahead of the stage regions so the snapshot closure can see
	// them as they come into existence.
	var accum *dataframe.Table
	var keptByCandidate [][]string
	var screened *screenOutcome
	saveCk := func(stage string, batch int, sseed int64, mut func(*runState)) {
		if ck == nil || done(stage, batch) {
			return
		}
		st := &runState{
			Accum:           accum,
			KeptByCandidate: keptByCandidate,
			Screen:          screened,
			Quarantined:     res.Quarantined,
			Batches:         res.Batches,
			Degraded:        res.Degraded,
			SelectionNanos:  int64(res.SelectionElapsed),
		}
		if mut != nil {
			mut(st)
		}
		seq := len(ck.Entries())
		// The fencing guard runs before anything touches disk: a stale owner
		// (lease lost to another process) must not write into a checkpoint
		// log the new owner is appending to. Skipping is the correct
		// response — the run is aborted separately at its next cancellation
		// point; here we only refuse the write.
		if opts.CheckpointGuard != nil {
			if err := opts.CheckpointGuard(); err != nil {
				cCkFailed.Add(1)
				opts.logf("checkpoint: fenced out of %s snapshot: %v", stage, err)
				return
			}
		}
		// A failed checkpoint write (injected or real) must never fail the
		// run — durability degrades, the run continues.
		if err := faultAt(inj, "checkpoint.write", seq); err != nil {
			cCkFailed.Add(1)
			opts.logf("checkpoint: skipping %s snapshot: %v", stage, err)
			return
		}
		if err := ck.Save(stage, batch, sseed, st); err != nil {
			cCkFailed.Add(1)
			opts.logf("checkpoint: writing %s snapshot: %v", stage, err)
			return
		}
		cCkSaved.Add(1)
	}

	span := root.Child("prefilter", 0)

	// The fault boundary: a candidate that faults is quarantined — recorded
	// and dropped — never fatal. partial finalizes the result snapshot for an
	// interrupted return.
	quarantine := func(name, stage string, reason error) {
		res.Quarantined = append(res.Quarantined, QuarantinedCandidate{Name: name, Stage: stage, Reason: reason.Error()})
		cQuarantined.Add(1)
		tr.Counter("quarantine." + stage).Add(1)
		opts.logf("quarantine: %s at %s: %v", name, stage, reason)
	}
	partial := func(err error) (*Result, error) {
		res.Elapsed = time.Since(start)
		// An interrupted run still finishes its trace: Finish closes the open
		// spans at their partial durations, emits the terminal metrics and run
		// event, and flushes the sinks — so -trace files and live /events
		// streams end valid (and complete) on cancellation or timeout too.
		res.Trace = tr.Finish()
		return res, err
	}
	cands = DedupeCandidates(base, cands)
	res.CandidatesDeduped = len(cands)
	cands, res.CandidatesFiltered = FilterTupleRatio(base.NumRows(), cands, opts.TupleRatioTau)

	size := opts.CoresetSize
	if size <= 0 {
		size = coreset.DefaultSize(base.NumRows())
	}

	// Resource budgets: over-budget runs degrade deterministically instead
	// of failing; the ladder's decisions depend only on inputs and options,
	// never on worker count or timing.
	var extraFiltered int
	cands, size, extraFiltered, res.Degraded = applyBudgets(base.NumRows(), base.NumCols(), cands, size, &opts)
	res.CandidatesFiltered += extraFiltered
	if len(res.Degraded) > 0 {
		tr.Counter("budget.degradations").Add(int64(len(res.Degraded)))
		for _, d := range res.Degraded {
			tr.Counter("budget." + d.Action).Add(1)
			opts.logf("budget: %s (%s): %s [%d -> %d]", d.Action, d.Budget, d.Detail, d.Before, d.After)
		}
	}
	tr.Gauge("budget.estimated_cells").Set(estimateCells(min(size, base.NumRows()), base.NumCols(), cands))
	tr.Gauge("budget.estimated_candidate_bytes").Set(estimateCandidateBytes(cands))

	span.SetInt("considered", int64(res.CandidatesConsidered))
	span.SetInt("after_dedupe", int64(res.CandidatesDeduped))
	span.SetInt("after_tuple_ratio", int64(len(cands)))
	tr.Gauge("candidates.considered").Set(int64(res.CandidatesConsidered))
	tr.Gauge("candidates.after_dedupe").Set(int64(res.CandidatesDeduped))
	tr.Gauge("candidates.after_tuple_ratio").Set(int64(len(cands)))
	span.End()
	saveCk("prefilter", -1, 0, nil)
	if err := interruptOf(ctx); err != nil {
		return partial(err)
	}

	budget := opts.Budget
	if budget <= 0 {
		budget = size
	}

	// Coreset: sampling strategies reduce rows before joining; sketching
	// must happen after the join, so the sketch strategy joins on all rows
	// and sketches each batch's numeric view. The clone matters: batch
	// imputation mutates columns in place and must never leak into the
	// caller's table. A resumed run restores the snapshot instead — the
	// restored table already carries every imputation to date.
	span = root.Child("coreset", 0)
	var joinBase *dataframe.Table
	if done("coreset", -1) {
		joinBase = rs.Accum
	} else {
		joinBase = base.Clone()
		if opts.CoresetStrategy != coreset.Sketch && size < base.NumRows() {
			rng := stageRNG(opts.Seed, seedStageCoreset)
			var idx []int
			switch {
			case opts.CoresetStrategy == coreset.Stratified && task == ml.Classification:
				labels := labelCodes(base, opts.Target)
				idx = coreset.StratifiedIndices(labels, classes, size, rng)
			case opts.CoresetStrategy == coreset.Leverage:
				view := base.ToNumericView(opts.Target)
				baseDS, err := ml.NewDataset(view.Data, view.Rows, view.Cols,
					make([]float64, view.Rows), ml.Regression, 0)
				if err == nil {
					baseDS.CleanNaNs()
					idx, err = coreset.LeverageIndices(baseDS.X, baseDS.N, baseDS.D, size, rng)
				}
				if err != nil || idx == nil {
					idx = coreset.UniformIndices(base.NumRows(), size, rng)
				}
			default:
				idx = coreset.UniformIndices(base.NumRows(), size, rng)
			}
			sort.Ints(idx)
			joinBase = base.Gather(idx)
		}
	}
	span.SetInt("rows_in", int64(base.NumRows()))
	span.SetInt("rows_out", int64(joinBase.NumRows()))
	span.End()
	saveCk("coreset", -1, stageSeed(opts.Seed, seedStageCoreset), func(st *runState) {
		st.Accum = joinBase
	})
	if err := interruptOf(ctx); err != nil {
		return partial(err)
	}

	// Per-run caches: foreign-table preparations (aggregation/resampling) are
	// shared by screen, the batch phase and materialization, and binarize
	// plans are reused across the batch loop's re-encodings of carried-forward
	// columns. Both are valid because candidate tables are never mutated and
	// work tables are only encoded fully imputed.
	prepCache := join.NewPrepCache()
	encCache := dataframe.NewEncodeCache()

	// Screen (screen.go): only the tables one selection round can rank on this
	// coreset go on. It snapshots only when it had to choose; "everything
	// fits" is recomputed on resume, like the prefilter.
	span = root.Child("screen", 0)
	span.SetInt("candidates_in", int64(len(cands)))
	if done("screen", -1) && rs.Screen != nil {
		screened = rs.Screen
	} else {
		var faults []error
		screened, faults, err = screenCandidates(ctx, screenInput{
			Coreset: joinBase, Cands: cands, Capacity: min(size, joinBase.NumRows()),
			Task: task, Classes: classes, Opts: &opts, Prep: prepCache,
		})
		if err != nil {
			span.End()
			return partial(mapInterrupt(err))
		}
		for ord, ferr := range faults {
			if ferr != nil {
				quarantine(cands[ord].Table.Name(), "screen", ferr)
			}
		}
	}
	res.CandidatesScreened, res.Screened = len(cands)-len(screened.Kept), screened.Tables
	cands = screened.keep(cands)
	span.SetInt("candidates_out", int64(len(cands)))
	tr.Gauge("candidates.after_screen").Set(int64(len(cands)))
	span.End()
	if screened.Tables != nil {
		opts.logf("screen: kept %d of %d candidates", len(cands), len(cands)+res.CandidatesScreened)
		saveCk("screen", -1, stageSeed(opts.Seed, seedStageScreen), func(st *runState) { st.Accum = joinBase })
	}

	plan := BuildPlan(cands, opts.Plan, budget)
	opts.logf("plan: %s, %d candidates in %d batches (budget %d features, coreset %d rows)",
		opts.Plan, len(cands), len(plan), budget, joinBase.NumRows())

	// prefixOf assigns each candidate a stable unique column prefix. Plan
	// batches partition the candidate list in order, so the ordinal of batch
	// bi, slot ci is batchOffset[bi]+ci — plain arithmetic instead of a map
	// keyed by formatted "bi/ci" strings.
	prefixOf := make([]string, len(cands))
	for i := range prefixOf {
		prefixOf[i] = fmt.Sprintf("t%d.", i)
	}
	batchOffset := make([]int, len(plan)+1)
	for bi := range plan {
		batchOffset[bi+1] = batchOffset[bi] + len(plan[bi].Candidates)
	}

	accum = dataframe.MustNewTable(joinBase.Name(), joinBase.Columns()...)
	keptByCandidate = make([][]string, len(cands)) // candidate ordinal -> kept source columns (unprefixed)
	if rs != nil && rs.KeptByCandidate != nil {
		copy(keptByCandidate, rs.KeptByCandidate)
	}

	for bi, batch := range plan {
		if done("select", bi) {
			// The snapshot already includes this batch's effects on accum,
			// keptByCandidate, and the batch reports.
			continue
		}
		batchSpan := root.Child("batch", bi)
		var joinedCands []joinedCandidate
		var tables []string
		newCols := 0
		var work *dataframe.Table
		if done("join", bi) {
			// Resuming mid-batch: rebuild work with the exact column aliasing
			// of an uninterrupted run — accum's own column objects plus the
			// snapshot's restored added columns.
			var rerr error
			work, joinedCands, tables, newCols, rerr = restoreBatch(rs, accum)
			if rerr != nil {
				batchSpan.End()
				return nil, rerr
			}
		} else {
			joinSpan := batchSpan.Child("join", 0)
			work = dataframe.MustNewTable(accum.Name(), accum.Columns()...)
			for ci, cand := range batch.Candidates {
				if err := interruptOf(ctx); err != nil {
					joinSpan.End()
					batchSpan.End()
					return partial(err)
				}
				ord := batchOffset[bi] + ci
				prefix := prefixOf[ord]
				spec := specFor(cand, opts, prefix)
				candSpan := joinSpan.Child("join.cand", ord)
				candSpan.SetLabel(cand.Table.Name())
				if cand.Table.NumRows() == 0 {
					// An empty candidate can only contribute all-NULL columns;
					// isolate it before it wastes a join.
					cCandSkipped.Add(1)
					quarantine(cand.Table.Name(), "join", fmt.Errorf("candidate table is empty"))
					candSpan.End()
					continue
				}
				// The per-attempt RNG re-derivation keeps retried joins
				// bit-identical to first-try successes.
				bi, ci := int64(bi), int64(ci)
				jr, err := guardedJoin(ctx, inj, "join", ord,
					func() *rand.Rand { return stageRNG(opts.Seed, seedStageJoin, bi, ci) },
					func(rng *rand.Rand) (*join.Result, error) {
						return join.ExecuteCached(work, cand.Table, spec, rng, prepCache)
					})
				if err != nil {
					if isInterrupt(err) {
						candSpan.End()
						joinSpan.End()
						batchSpan.End()
						return partial(mapInterrupt(err))
					}
					// A malformed candidate (discovery is noisy by design) is
					// quarantined, not fatal.
					cCandSkipped.Add(1)
					quarantine(cand.Table.Name(), "join", err)
					candSpan.End()
					continue
				}
				candSpan.SetInt("rows_matched", int64(jr.Matched))
				candSpan.SetInt("cols_added", int64(len(jr.AddedColumns)))
				candSpan.End()
				cCandScored.Add(1)
				cRowsMatched.Add(int64(jr.Matched))
				work = jr.Table
				joinedCands = append(joinedCands, joinedCandidate{ord, cand.Table.Name(), prefix, jr.AddedColumns})
				tables = append(tables, cand.Table.Name())
				newCols += len(jr.AddedColumns)
			}
			joinSpan.End()
			saveCk("join", bi, stageSeed(opts.Seed, seedStageJoin, int64(bi)), func(st *runState) {
				st.Added, st.AddedCols, st.Tables, st.NewCols = batchSnapshot(work, joinedCands, tables, newCols)
			})
		}
		if len(joinedCands) == 0 {
			batchSpan.End()
			continue
		}
		if err := interruptOf(ctx); err != nil {
			batchSpan.End()
			return partial(err)
		}
		// Impute/encode fault sites: these stages act on the whole work
		// table, so per-candidate fault attribution happens here — a
		// candidate faulted at either site has its joined columns dropped
		// before the stage runs and the batch continues without it.
		dropFaulted := func(stage string) {
			if inj == nil {
				return
			}
			live := joinedCands[:0]
			for _, a := range joinedCands {
				if err := faultAt(inj, stage, a.ordinal); err != nil {
					quarantine(a.name, stage, err)
					for _, c := range a.cols {
						work.DropColumn(c)
					}
					newCols -= len(a.cols)
					continue
				}
				live = append(live, a)
			}
			joinedCands = live
		}
		if !done("impute", bi) {
			dropFaulted("impute")
			span = batchSpan.Child("impute", 0)
			imputeTable(work, opts, stageRNG(opts.Seed, seedStageImpute, int64(bi)))
			span.End()
			saveCk("impute", bi, stageSeed(opts.Seed, seedStageImpute, int64(bi)), func(st *runState) {
				st.Added, st.AddedCols, st.Tables, st.NewCols = batchSnapshot(work, joinedCands, tables, newCols)
			})
		}

		dropFaulted("encode")
		if len(joinedCands) == 0 {
			batchSpan.End()
			continue
		}
		view := work.ToNumericViewCached(encCache, opts.Target)
		y, err := work.TargetVector(opts.Target)
		if err != nil {
			return nil, err
		}
		ds, err := ml.NewDataset(view.Data, view.Rows, view.Cols, y, task, classes)
		if err != nil {
			return nil, err
		}
		ds.CleanNaNs()
		if opts.CoresetStrategy == coreset.Sketch {
			ds = coreset.SketchDataset(ds, size, stageRNG(opts.Seed, seedStageSketch, int64(bi)))
		}

		// The span counts what the counters count — candidate columns offered
		// and kept; the base and carried-forward columns are features_carried.
		selSpan := batchSpan.Child("select", 0)
		selSpan.SetInt("features_in", int64(newCols))
		selSpan.SetInt("features_carried", int64(work.NumCols()-newCols-1))
		if sa, ok := opts.Selector.(obs.SpanAttacher); ok {
			sa.AttachSpan(selSpan)
		}
		if fa, ok := opts.Selector.(featsel.ForestEstimatorAware); ok && estForest != nil {
			fa.SetSweepForest(estForest)
		}
		selStart := time.Now()
		selected, err := selectWith(ctx, opts.Selector, ds, estimator, opts.Seed+int64(bi+1))
		res.SelectionElapsed += time.Since(selStart)
		if sa, ok := opts.Selector.(obs.SpanAttacher); ok {
			sa.AttachSpan(nil)
		}
		if fa, ok := opts.Selector.(featsel.ForestEstimatorAware); ok && estForest != nil {
			fa.SetSweepForest(nil)
		}
		if err != nil {
			if isInterrupt(err) {
				selSpan.End()
				batchSpan.End()
				return partial(mapInterrupt(err))
			}
			return nil, fmt.Errorf("core: feature selection on batch %d: %w", bi, err)
		}

		report := BatchReport{Tables: tables, CandidateFeatures: newCols}
		keptSources := map[string]bool{}
		for _, j := range selected {
			name := view.Names[j]
			src := sourceColumn(name)
			for _, a := range joinedCands {
				if strings.HasPrefix(src, a.prefix) {
					if !keptSources[src] {
						keptSources[src] = true
						keptByCandidate[a.ordinal] = append(keptByCandidate[a.ordinal],
							strings.TrimPrefix(src, a.prefix))
						report.KeptFeatures = append(report.KeptFeatures, src)
					}
					break
				}
			}
		}
		selSpan.SetInt("features_selected", int64(len(report.KeptFeatures)))
		selSpan.End()
		cFeatOffered.Add(int64(newCols))
		// Carry kept columns forward so later batches can co-predict with
		// them.
		for _, name := range report.KeptFeatures {
			if col := work.Column(name); col != nil && !accum.HasColumn(name) {
				if err := accum.AddColumn(col); err != nil {
					return nil, err
				}
			}
		}
		if opts.KeepScores && len(report.KeptFeatures) > 0 {
			report.Score = holdoutScoreOf(accum, opts.Target, task, classes, estimator, opts.Seed)
		}
		cFeatKept.Add(int64(len(report.KeptFeatures)))
		opts.logf("batch %d/%d: %d tables, %d candidate features, kept %d",
			bi+1, len(plan), len(tables), newCols, len(report.KeptFeatures))
		res.Batches = append(res.Batches, report)
		saveCk("select", bi, opts.Seed+int64(bi+1), nil)
		batchSpan.End()
	}

	// Materialize kept features over the full base table. Clone so the
	// final imputation cannot mutate the caller's table. The stage region
	// includes the final imputation — its snapshot captures the fully
	// imputed table, so a resume never re-imputes.
	if err := interruptOf(ctx); err != nil {
		return partial(err)
	}
	var final *dataframe.Table
	if done("materialize", -1) {
		final = rs.Final
		res.KeptColumns = rs.KeptColumns
		res.KeptTables = rs.KeptTables
	} else {
		matSpan := root.Child("materialize", 0)
		final = base.Clone()
		seenTables := make(map[string]bool)
		for bi, batch := range plan {
			for ci, cand := range batch.Candidates {
				ord := batchOffset[bi] + ci
				kept := keptByCandidate[ord]
				if len(kept) == 0 {
					continue
				}
				if err := interruptOf(ctx); err != nil {
					matSpan.End()
					return partial(err)
				}
				prefix := prefixOf[ord]
				spec := specFor(cand, opts, prefix)
				candSpan := matSpan.Child("materialize.cand", ord)
				candSpan.SetLabel(cand.Table.Name())
				jr, err := guardedJoin(ctx, inj, "materialize", ord,
					func() *rand.Rand { return stageRNG(opts.Seed, seedStageMaterialize, int64(ord)) },
					func(rng *rand.Rand) (*join.Result, error) {
						return join.ExecuteCached(final, cand.Table, spec, rng, prepCache)
					})
				if err != nil {
					if isInterrupt(err) {
						candSpan.End()
						matSpan.End()
						return partial(mapInterrupt(err))
					}
					quarantine(cand.Table.Name(), "materialize", err)
					candSpan.End()
					continue
				}
				candSpan.SetInt("rows_matched", int64(jr.Matched))
				candSpan.SetInt("cols_kept", int64(len(kept)))
				candSpan.End()
				cRowsMatched.Add(int64(jr.Matched))
				keptSet := make(map[string]bool, len(kept))
				for _, k := range kept {
					keptSet[prefix+k] = true
				}
				next := jr.Table
				for _, name := range jr.AddedColumns {
					if !keptSet[name] {
						next.DropColumn(name)
					} else {
						res.KeptColumns = append(res.KeptColumns, name)
					}
				}
				final = next
				if !seenTables[cand.Table.Name()] {
					seenTables[cand.Table.Name()] = true
					res.KeptTables = append(res.KeptTables, cand.Table.Name())
				}
			}
		}
		matSpan.SetInt("cols_kept", int64(len(res.KeptColumns)))
		matSpan.End()
		if err := interruptOf(ctx); err != nil {
			return partial(err)
		}
		span = root.Child("impute", 0)
		imputeTable(final, opts, stageRNG(opts.Seed, seedStageFinal))
		span.End()
		saveCk("materialize", -1, stageSeed(opts.Seed, seedStageFinal), func(st *runState) {
			st.Final = final
			st.KeptColumns = res.KeptColumns
			st.KeptTables = res.KeptTables
		})
	}
	res.Table = final
	opts.logf("materialized %d kept columns from %d tables over %d rows",
		len(res.KeptColumns), len(res.KeptTables), final.NumRows())

	// Final estimate: base vs augmented holdout score under the same
	// estimator.
	if err := interruptOf(ctx); err != nil {
		return partial(err)
	}
	span = root.Child("evaluate", 0)
	if done("evaluate", -1) {
		res.BaseScore = rs.BaseScore
		res.FinalScore = rs.FinalScore
		res.EstimatorName = rs.EstimatorName
		res.Significance = rs.Significance
	} else {
		res.BaseScore = holdoutScoreOf(base, opts.Target, task, classes, estimator, opts.Seed)
		res.FinalScore = holdoutScoreOf(final, opts.Target, task, classes, estimator, opts.Seed)
		res.EstimatorName = "random forest"

		if opts.Significance > 0 {
			baseDS, errB := DatasetOf(base, opts.Target, task, classes)
			augDS, errA := DatasetOf(final, opts.Target, task, classes)
			if errB == nil && errA == nil {
				res.Significance = eval.TestAugmentation(baseDS, augDS, estimator, opts.Significance, opts.Seed)
			}
		}
		saveCk("evaluate", -1, 0, func(st *runState) {
			st.Final = final
			st.KeptColumns = res.KeptColumns
			st.KeptTables = res.KeptTables
			st.BaseScore = res.BaseScore
			st.FinalScore = res.FinalScore
			st.EstimatorName = res.EstimatorName
			st.Significance = res.Significance
		})
	}
	span.End()

	ps := prepCache.Stats()
	tr.Gauge("prep_cache.hits").Set(ps.Hits)
	tr.Gauge("prep_cache.misses").Set(ps.Misses)
	tr.Gauge("prep_cache.entries").Set(int64(prepCache.Len()))
	es := encCache.Stats()
	tr.Gauge("encode_cache.hits").Set(es.Hits)
	tr.Gauge("encode_cache.misses").Set(es.Misses)
	tr.Gauge("encode_cache.entries").Set(int64(encCache.Len()))

	res.Elapsed = time.Since(start)
	res.Trace = tr.Finish()
	return res, nil
}

// selectWith runs feature selection, preferring the selector's
// context-aware path when it implements featsel.ContextSelector so that a
// canceled run stops selection promptly.
func selectWith(ctx context.Context, sel featsel.Selector, ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	if cs, ok := sel.(featsel.ContextSelector); ok {
		return cs.SelectCtx(ctx, ds, est, seed)
	}
	return sel.Select(ds, est, seed)
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

// labelCodes extracts integer class codes of the target column.
func labelCodes(t *dataframe.Table, target string) []int {
	c, _ := t.Column(target).(*dataframe.CategoricalColumn)
	if c == nil {
		return make([]int, t.NumRows())
	}
	return c.Codes
}

// holdoutScoreOf builds a numeric dataset from the table (imputing a copy if
// needed) and returns the estimator's holdout task score.
func holdoutScoreOf(t *dataframe.Table, target string, task ml.Task, classes int, est eval.Fitter, seed int64) float64 {
	ds, err := DatasetOf(t, target, task, classes)
	if err != nil {
		return 0
	}
	split := eval.TrainTestSplit(ds, 0.25, seed)
	return eval.HoldoutScore(ds, split, est)
}

// DatasetOf converts a table into an ml.Dataset for the given target,
// one-hot-encoding categoricals and mean-filling any remaining NaNs.
func DatasetOf(t *dataframe.Table, target string, task ml.Task, classes int) (*ml.Dataset, error) {
	view := t.ToNumericView(target)
	y, err := t.TargetVector(target)
	if err != nil {
		return nil, err
	}
	ds, err := ml.NewDataset(view.Data, view.Rows, view.Cols, y, task, classes)
	if err != nil {
		return nil, err
	}
	ds.CleanNaNs()
	return ds, nil
}

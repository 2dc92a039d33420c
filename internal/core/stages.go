package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// The stages, in table order, and the join helper join and materialize
// share.

// prefilter dedupes the candidates, applies the Tuple-Ratio rule and fixes
// the coreset size.
func (r *run) prefilter(context.Context) (bool, error) {
	span := r.tr.Root().Child("prefilter", 0)
	defer span.End()
	o, res, tr := &r.opts, &r.res, r.tr
	rows := r.base.NumRows()

	cands := DedupeCandidates(r.base, r.cands)
	res.CandidatesDeduped = len(cands)
	cands, res.CandidatesFiltered = FilterTupleRatio(rows, cands, o.TupleRatioTau)
	r.cands = cands
	r.size = o.CoresetSize
	if r.size <= 0 {
		r.size = coreset.DefaultSize(rows)
	}
	span.SetInt("considered", int64(res.CandidatesConsidered))
	span.SetInt("after_dedupe", int64(res.CandidatesDeduped))
	span.SetInt("after_tuple_ratio", int64(len(cands)))
	tr.Gauge("candidates.considered").Set(int64(res.CandidatesConsidered))
	tr.Gauge("candidates.after_dedupe").Set(int64(res.CandidatesDeduped))
	tr.Gauge("candidates.after_tuple_ratio").Set(int64(len(cands)))
	return false, nil
}

// coreset reduces the base rows the rest of the run works on. work owns its
// columns either way: the impute stage mutates them in place and must never
// leak into the caller's table.
func (r *run) coreset(context.Context) (bool, error) {
	span := r.tr.Root().Child("coreset", 0)
	defer span.End()
	if r.size < r.base.NumRows() {
		idx := r.coresetRows(stageRNG(r.opts.Seed, seedStageCoreset))
		sort.Ints(idx)
		r.work = r.base.Gather(idx)
	} else {
		r.work = r.base.Clone()
	}
	span.SetInt("rows_in", int64(r.base.NumRows()))
	span.SetInt("rows_out", int64(r.work.NumRows()))
	return false, nil
}

// coresetRows draws the coreset's row indices under the configured strategy,
// falling back to uniform sampling where leverage scores cannot be computed.
func (r *run) coresetRows(rng *rand.Rand) []int {
	base, o := r.base, &r.opts
	if o.CoresetStrategy == coreset.Leverage {
		view := base.ToNumericView(o.Target)
		ds, err := ml.NewDataset(view.Data, view.Rows, view.Cols, make([]float64, view.Rows), ml.Regression, 0)
		if err == nil {
			ds.CleanNaNs()
			if idx, err := coreset.LeverageIndices(ds.X, ds.N, ds.D, r.size, rng); err == nil && idx != nil {
				return idx
			}
		}
	}
	return coreset.UniformIndices(base.NumRows(), r.size, rng)
}

// screen (screen.go has the rule) lets only the tables one selection round
// can rank on this coreset go on. A verdict the resumed shard carries is
// applied, not recomputed; "everything fits" stores none and asks for no
// snapshot — it is found again on resume, like the prefilter's result.
func (r *run) screen(ctx context.Context) (bool, error) {
	span := r.tr.Root().Child("screen", 0)
	defer span.End()
	res, in := &r.res, len(r.cands)
	span.SetInt("candidates_in", int64(in))
	out := &screenOutcome{Kept: keptOrdinals(res.Screened), Tables: res.Screened}
	if out.Tables == nil {
		var faults []error
		var err error
		out, faults, err = screenCandidates(ctx, screenInput{
			Coreset: r.work, Cands: r.cands, Capacity: min(r.size, r.work.NumRows()),
			Task: r.task, Classes: r.classes, Opts: &r.opts,
		})
		if err != nil {
			return false, err
		}
		for ord, ferr := range faults {
			if ferr != nil {
				r.quarantine(r.cands[ord].Table.Name(), "screen", ferr)
			}
		}
	}
	r.cands = out.keep(r.cands)
	res.CandidatesScreened, res.Screened = in-len(r.cands), out.Tables
	span.SetInt("candidates_out", int64(len(r.cands)))
	r.tr.Gauge("candidates.after_screen").Set(int64(len(r.cands)))
	if out.Tables != nil {
		r.opts.logf("screen: kept %d of %d candidates", len(r.cands), in)
	}
	return out.Tables != nil, nil
}

// joinedCandidate is a candidate the join stage joined onto work and no
// fault site has quarantined since: its ordinal and the (prefixed) columns
// it added.
type joinedCandidate struct {
	Ordinal int
	Cols    []string
}

// prefixOf is candidate ord's stable unique column prefix.
func prefixOf(ord int) string { return fmt.Sprintf("t%d.", ord) }

// selectSeed is the seed selection runs under.
func selectSeed(runSeed int64) int64 { return runSeed + 1 }

// joinCandidate joins candidate ord onto left through the fault boundary,
// under a "<stage>.cand" span of parent. On success it returns the join and
// the still-open span, for the caller to note what it made of the columns and
// End. A candidate that faults (discovery is noisy by design) is quarantined
// at the stage and returns nil, nil, nil; an error is an interrupt.
func (r *run) joinCandidate(ctx context.Context, parent *obs.Span, stage string, ord int,
	left *dataframe.Table, seedPath ...int64) (*join.Result, *obs.Span, error) {
	cand := r.cands[ord]
	span := parent.Child(stage+".cand", ord)
	span.SetLabel(cand.Table.Name())
	jr, err := guardedJoin(ctx, &r.opts, stage, ord, left, cand, prefixOf(ord), seedPath...)
	if err != nil {
		span.End()
		if isInterrupt(err) {
			return nil, nil, err
		}
		r.quarantine(cand.Table.Name(), stage, err)
		return nil, nil, nil
	}
	span.SetInt("rows_matched", int64(jr.Matched))
	r.tr.Counter("join.rows_matched").Add(int64(jr.Matched))
	return jr, span, nil
}

// join joins the screened candidates onto the coreset in work, one after
// the other.
func (r *run) join(ctx context.Context) (bool, error) {
	span := r.tr.Root().Child("join", 0)
	defer span.End()
	for ord := range r.cands {
		if err := interruptOf(ctx); err != nil {
			return false, err
		}
		jr, candSpan, err := r.joinCandidate(ctx, span, "join", ord, r.work, seedStageJoin, 0, int64(ord))
		if err != nil {
			return false, err
		}
		if jr == nil {
			r.tr.Counter("join.candidates_skipped").Add(1)
			continue
		}
		candSpan.SetInt("cols_added", int64(len(jr.AddedColumns)))
		candSpan.End()
		r.tr.Counter("join.candidates_scored").Add(1)
		r.work = jr.Table
		r.joined = append(r.joined, joinedCandidate{ord, jr.AddedColumns})
	}
	return false, nil
}

// dropFaulted is the fault site of the stages that act on the whole work
// table (impute, select's encoding): a candidate faulted at the site is
// quarantined and its joined columns dropped before the stage runs.
func (r *run) dropFaulted(site string) {
	inj := r.opts.FaultInjector
	if inj == nil {
		return
	}
	live := r.joined[:0]
	for _, a := range r.joined {
		if err := faultAt(inj, site, a.Ordinal); err != nil {
			r.quarantine(r.cands[a.Ordinal].Table.Name(), site, err)
			for _, c := range a.Cols {
				r.work.DropColumn(c)
			}
			continue
		}
		live = append(live, a)
	}
	r.joined = live
}

// impute fills work's NULLs in place. With no candidate joined there is
// nothing to fill for selection.
func (r *run) impute(context.Context) (bool, error) {
	r.dropFaulted("impute")
	if len(r.joined) == 0 {
		return false, nil
	}
	span := r.tr.Root().Child("impute", 0)
	defer span.End()
	join.Impute(r.work, stageRNG(r.opts.Seed, seedStageImpute, 0))
	return false, nil
}

// selectFeatures encodes work, runs the selector over it and credits each
// kept feature to the candidate that brought it. With no candidate left
// (each faulted at the encode site, or none joined) it selects nothing and
// asks for no snapshot.
func (r *run) selectFeatures(ctx context.Context) (bool, error) {
	r.dropFaulted("encode")
	joined, o, work := r.joined, &r.opts, r.work
	if len(joined) == 0 {
		return false, nil
	}
	view, ds, err := encodeTable(work, o.Target, r.task, r.classes)
	if err != nil {
		return false, err
	}

	// The span counts what the counters count — candidate columns offered
	// and kept; the base table's own columns are features_base.
	offered := 0
	for _, a := range joined {
		offered += len(a.Cols)
	}
	span := r.tr.Root().Child("select", 0)
	defer span.End()
	span.SetInt("features_in", int64(offered))
	span.SetInt("features_base", int64(work.NumCols()-offered-1))
	selected, err := r.runSelector(ctx, span, ds)
	if err != nil {
		return false, fmt.Errorf("core: feature selection: %w", err)
	}

	// A feature belongs to the joined candidate whose prefix its source
	// column carries; base columns belong to none.
	owner := make(map[string]int, len(joined))
	for _, a := range joined {
		owner[prefixOf(a.Ordinal)] = a.Ordinal
	}
	r.kept = make([][]string, len(r.cands))
	seen := map[string]bool{}
	for _, j := range selected {
		src := sourceColumn(view.Names[j])
		prefix := src[:strings.Index(src, ".")+1]
		ord, ok := owner[prefix]
		if !ok || seen[src] {
			continue
		}
		seen[src] = true
		r.kept[ord] = append(r.kept[ord], strings.TrimPrefix(src, prefix))
	}
	span.SetInt("features_selected", int64(len(seen)))
	r.tr.Counter("select.features_offered").Add(int64(offered))
	r.tr.Counter("select.features_kept").Add(int64(len(seen)))
	o.logf("select: %d tables, %d candidate features, kept %d", len(joined), offered, len(seen))
	return true, nil
}

// runSelector runs the selector with the run's hooks attached for the call:
// its span and the selection clock.
func (r *run) runSelector(ctx context.Context, span *obs.Span, ds *ml.Dataset) ([]int, error) {
	sel := r.opts.Selector
	if sa, ok := sel.(obs.SpanAttacher); ok {
		sa.AttachSpan(span)
		defer sa.AttachSpan(nil)
	}
	defer func(start time.Time) { r.res.SelectionElapsed += time.Since(start) }(time.Now())
	// The context-aware path stops a canceled run's selection promptly.
	if cs, ok := sel.(featsel.ContextSelector); ok {
		return cs.SelectCtx(ctx, ds, r.estimator, selectSeed(r.opts.Seed))
	}
	return sel.Select(ds, r.estimator, selectSeed(r.opts.Seed))
}

// materialize re-joins, over the full base table, the candidates that kept a
// column, then imputes the result. It saves nothing: a run resumed past it
// replays it from the stored KeptByCandidate to the same table.
func (r *run) materialize(ctx context.Context) (bool, error) {
	final, err := r.joinKept(ctx)
	if err == nil {
		err = interruptOf(ctx)
	}
	if err != nil {
		return false, err
	}
	// Ordinal 1: the join-phase "impute" is ordinal 0 among the same
	// top-level siblings, and their event paths must differ.
	span := r.tr.Root().Child("impute", 1)
	defer span.End()
	join.Impute(final, stageRNG(r.opts.Seed, seedStageFinal))
	res := &r.res
	res.Table = final
	r.opts.logf("materialized %d kept columns from %d tables over %d rows",
		len(res.KeptColumns), len(res.KeptTables), final.NumRows())
	return false, nil
}

// joinKept is materialize's join pass, onto a clone of the base so the final
// imputation cannot mutate the caller's table: each candidate with kept
// columns is joined, and what it added but selection did not keep dropped.
func (r *run) joinKept(ctx context.Context) (*dataframe.Table, error) {
	span := r.tr.Root().Child("materialize", 0)
	defer span.End()
	res := &r.res
	final := r.base.Clone()
	seenTables := make(map[string]bool)
	for ord, kept := range r.kept {
		if len(kept) == 0 {
			continue
		}
		if err := interruptOf(ctx); err != nil {
			return nil, err
		}
		jr, candSpan, err := r.joinCandidate(ctx, span, "materialize", ord, final, seedStageMaterialize, int64(ord))
		if err != nil {
			return nil, err
		}
		if jr == nil {
			continue
		}
		candSpan.SetInt("cols_kept", int64(len(kept)))
		candSpan.End()
		keptSet, prefix := make(map[string]bool, len(kept)), prefixOf(ord)
		for _, k := range kept {
			keptSet[prefix+k] = true
		}
		final = jr.Table
		for _, name := range jr.AddedColumns {
			if keptSet[name] {
				res.KeptColumns = append(res.KeptColumns, name)
			} else {
				final.DropColumn(name)
			}
		}
		if name := r.cands[ord].Table.Name(); !seenTables[name] {
			seenTables[name] = true
			res.KeptTables = append(res.KeptTables, name)
		}
	}
	span.SetInt("cols_kept", int64(len(res.KeptColumns)))
	return final, nil
}

// evaluate is the final estimate: base vs augmented holdout score under the
// same estimator, and the paired bootstrap between them when asked for. A
// table that does not encode scores 0. Its child spans attribute the stage:
// evaluate.encode per table (ordinal 0 the base, 1 the augmented one), then
// evaluate.base and evaluate.augmented, each one holdout fit and score.
func (r *run) evaluate(context.Context) (bool, error) {
	span := r.tr.Root().Child("evaluate", 0)
	defer span.End()
	o, res := &r.opts, &r.res
	// The two encodings are independent (tables are only read), so they run
	// as two pool items.
	tables := [2]*dataframe.Table{r.base, res.Table}
	var dss [2]*ml.Dataset
	var errs [2]error
	encode := [2]*obs.Span{span.Child("evaluate.encode", 0), span.Child("evaluate.encode", 1)}
	parallel.ForEach(0, 2, func(i int) {
		encode[i].Begin()
		dss[i], errs[i] = DatasetOf(tables[i], o.Target, r.task, r.classes)
		encode[i].End()
	})
	baseDS, augDS, errB, errA := dss[0], dss[1], errs[0], errs[1]
	holdout := func(name string, ds *ml.Dataset) float64 {
		fit := span.Child(name, 0)
		defer fit.End()
		return eval.HoldoutScore(ds, eval.TrainTestSplit(ds, 0.25, o.Seed), r.estimator)
	}
	if errB == nil {
		res.BaseScore = holdout("evaluate.base", baseDS)
	}
	if errA == nil {
		res.FinalScore = holdout("evaluate.augmented", augDS)
	}
	res.EstimatorName = "random forest"
	if o.Significance > 0 && errB == nil && errA == nil {
		res.Significance = eval.TestAugmentation(baseDS, augDS, r.estimator, o.Significance, o.Seed)
	}
	return true, nil
}

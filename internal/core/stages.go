package core

import (
	"context"
	"math/rand"
	"sort"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// The stages outside the per-batch group (batch.go), in table order.

// prefilter dedupes the candidates, applies the Tuple-Ratio rule and fixes
// the coreset size.
func (r *run) prefilter(context.Context, int) (bool, error) {
	span := r.tr.Root().Child("prefilter", 0)
	defer span.End()
	o, res, tr := &r.opts, &r.st.Result, r.tr
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
	return true, nil
}

// coreset reduces the base rows the rest of the run works on. Sketching must
// happen after the join, so the sketch strategy joins on all rows and
// sketches each batch's numeric view instead. Either way the result owns its
// columns: batch imputation mutates them in place and must never leak into
// the caller's table.
func (r *run) coreset(context.Context, int) (bool, error) {
	span := r.tr.Root().Child("coreset", 0)
	defer span.End()
	if r.opts.CoresetStrategy != coreset.Sketch && r.size < r.base.NumRows() {
		idx := r.coresetRows(stageRNG(r.opts.Seed, seedStageCoreset))
		sort.Ints(idx)
		r.st.Accum = r.base.Gather(idx)
	} else {
		r.st.Accum = r.base.Clone()
	}
	span.SetInt("rows_in", int64(r.base.NumRows()))
	span.SetInt("rows_out", int64(r.st.Accum.NumRows()))
	return true, nil
}

// coresetRows draws the coreset's row indices under the configured strategy,
// falling back to uniform sampling where the strategy does not apply.
func (r *run) coresetRows(rng *rand.Rand) []int {
	base, o := r.base, &r.opts
	switch {
	case o.CoresetStrategy == coreset.Stratified && r.task == ml.Classification:
		// TaskOf made the task classification because the target is categorical.
		labels := base.Column(o.Target).(*dataframe.CategoricalColumn).Codes
		return coreset.StratifiedIndices(labels, r.classes, r.size, rng)
	case o.CoresetStrategy == coreset.Leverage:
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
// can rank on this coreset go on. A verdict the resumed snapshot carries is
// applied, not recomputed; "everything fits" stores none and asks for no
// snapshot — it is found again on resume, like the prefilter's result.
func (r *run) screen(ctx context.Context, _ int) (bool, error) {
	span := r.tr.Root().Child("screen", 0)
	defer span.End()
	res, in := &r.st.Result, len(r.cands)
	span.SetInt("candidates_in", int64(in))
	out := &screenOutcome{Kept: keptOrdinals(res.Screened), Tables: res.Screened}
	if out.Tables == nil {
		var faults []error
		var err error
		out, faults, err = screenCandidates(ctx, screenInput{
			Coreset: r.st.Accum, Cands: r.cands, Capacity: min(r.size, r.st.Accum.NumRows()),
			Task: r.task, Classes: r.classes, Opts: &r.opts, Prep: r.prep,
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

// materialize re-joins, over the full base table, the candidates that kept a
// column, then imputes the result. The stage includes that final imputation
// — its snapshot captures the fully imputed table, so a resume never
// re-imputes.
func (r *run) materialize(ctx context.Context, _ int) (bool, error) {
	final, err := r.joinKept(ctx)
	if err == nil {
		err = interruptOf(ctx)
	}
	if err != nil {
		return false, err
	}
	span := r.tr.Root().Child("impute", 0)
	defer span.End()
	imputeTable(final, r.opts, stageRNG(r.opts.Seed, seedStageFinal))
	res := &r.st.Result
	res.Table = final
	r.opts.logf("materialized %d kept columns from %d tables over %d rows",
		len(res.KeptColumns), len(res.KeptTables), final.NumRows())
	return true, nil
}

// joinKept is materialize's join pass, onto a clone of the base so the final
// imputation cannot mutate the caller's table: each candidate with kept
// columns is joined, and what it added but selection did not keep dropped.
func (r *run) joinKept(ctx context.Context) (*dataframe.Table, error) {
	span := r.tr.Root().Child("materialize", 0)
	defer span.End()
	res := &r.st.Result
	final := r.base.Clone()
	seenTables := make(map[string]bool)
	for ord, kept := range r.st.KeptByCandidate {
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
func (r *run) evaluate(context.Context, int) (bool, error) {
	span := r.tr.Root().Child("evaluate", 0)
	defer span.End()
	o, res := &r.opts, &r.st.Result
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

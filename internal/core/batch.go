package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// batchState is the open batch's part of the cumulative state: the per-batch
// stages (and the join helper they share with materialize) follow.
type batchState struct {
	// Joined lists the candidates joined and not quarantined since, in plan
	// order, with the (prefixed) columns each added to work.
	Joined []joinedCandidate
	// Tables names every table the batch joined, for its report.
	Tables []string
	// AddedCols holds the very column objects Joined contributed to work, as
	// a table beside Accum — the aliasing invariant in durability.go.
	AddedCols *dataframe.Table
}

type joinedCandidate struct {
	Ordinal int
	Cols    []string
}

// prefixOf is candidate ord's stable unique column prefix.
func prefixOf(ord int) string { return fmt.Sprintf("t%d.", ord) }

// selectSeed is the seed batch b's selection runs under.
func selectSeed(runSeed int64, b int) int64 { return runSeed + int64(b+1) }

// buildPlan groups the screened candidates into batches. Batches partition
// the list in order, so a candidate's ordinal is its index in r.cands.
func (r *run) buildPlan() {
	budget := r.opts.Budget
	if budget <= 0 {
		budget = r.size
	}
	r.plan = BuildPlan(r.cands, r.opts.Plan, budget)
	r.opts.logf("plan: %s, %d candidates in %d batches (budget %d features, coreset %d rows)",
		r.opts.Plan, len(r.cands), len(r.plan), budget, r.st.Accum.NumRows())
	kept := make([][]string, len(r.cands))
	copy(kept, r.st.KeptByCandidate)
	r.st.KeptByCandidate = kept
}

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
	jr, err := guardedJoin(ctx, &r.opts, r.prep, stage, ord, left, cand, prefixOf(ord), seedPath...)
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

// joinBatch joins batch b's candidates onto work, one after the other.
func (r *run) joinBatch(ctx context.Context, b int) (bool, error) {
	span := r.batchSpan.Child("join", 0)
	defer span.End()
	bt, lo := &r.st.Batch, 0
	for _, earlier := range r.plan[:b] {
		lo += len(earlier.Candidates)
	}
	bt.AddedCols = dataframe.MustNewTable("added")
	for ord := lo; ord < lo+len(r.plan[b].Candidates); ord++ {
		if err := interruptOf(ctx); err != nil {
			return false, err
		}
		jr, candSpan, err := r.joinCandidate(ctx, span, "join", ord, r.work, seedStageJoin, int64(b), int64(ord-lo))
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
		bt.Joined = append(bt.Joined, joinedCandidate{ord, jr.AddedColumns})
		bt.Tables = append(bt.Tables, r.cands[ord].Table.Name())
		for _, c := range jr.AddedColumns {
			_ = bt.AddedCols.AddColumn(r.work.Column(c)) // prefixes make the names unique
		}
	}
	return true, nil
}

// dropFaulted is the fault site of the stages that act on the whole work
// table (impute, select's encoding): a candidate faulted at the site is
// quarantined and its joined columns dropped before the stage runs.
func (r *run) dropFaulted(site string) {
	inj := r.opts.FaultInjector
	if inj == nil {
		return
	}
	bt := &r.st.Batch
	live := bt.Joined[:0]
	for _, a := range bt.Joined {
		if err := faultAt(inj, site, a.Ordinal); err != nil {
			r.quarantine(r.cands[a.Ordinal].Table.Name(), site, err)
			for _, c := range a.Cols {
				r.work.DropColumn(c)
				bt.AddedCols.DropColumn(c)
			}
			continue
		}
		live = append(live, a)
	}
	bt.Joined = live
}

// imputeBatch fills work's NULLs in place — Accum's columns included, which
// is how later batches see them filled.
func (r *run) imputeBatch(_ context.Context, b int) (bool, error) {
	r.dropFaulted("impute")
	span := r.batchSpan.Child("impute", 0)
	defer span.End()
	imputeTable(r.work, r.opts, stageRNG(r.opts.Seed, seedStageImpute, int64(b)))
	return true, nil
}

// selectBatch encodes work, runs the selector over it, credits each kept
// feature to the candidate that brought it and carries the kept columns
// forward in Accum so later batches can co-predict with them. It closes the
// batch either way; one whose every candidate faulted at the encode site
// reports nothing and asks for no snapshot.
func (r *run) selectBatch(ctx context.Context, b int) (bool, error) {
	r.dropFaulted("encode")
	bt, o, work := r.st.Batch, &r.opts, r.work
	r.st.Batch = batchState{}
	if len(bt.Joined) == 0 {
		return false, nil
	}
	view, ds, err := encodeTable(work, r.enc, o.Target, r.task, r.classes)
	if err != nil {
		return false, err
	}
	if o.CoresetStrategy == coreset.Sketch {
		ds = coreset.SketchDataset(ds, r.size, stageRNG(o.Seed, seedStageSketch, int64(b)))
	}

	// The span counts what the counters count — candidate columns offered
	// and kept; the base and carried-forward columns are features_carried.
	newCols := 0
	for _, a := range bt.Joined {
		newCols += len(a.Cols)
	}
	span := r.batchSpan.Child("select", 0)
	defer span.End()
	span.SetInt("features_in", int64(newCols))
	span.SetInt("features_carried", int64(work.NumCols()-newCols-1))
	selected, err := r.runSelector(ctx, span, ds, b)
	if err != nil {
		return false, fmt.Errorf("core: feature selection on batch %d: %w", b, err)
	}

	// A feature belongs to the joined candidate whose prefix its source
	// column carries; base and carried-forward columns belong to none.
	owner := make(map[string]int, len(bt.Joined))
	for _, a := range bt.Joined {
		owner[prefixOf(a.Ordinal)] = a.Ordinal
	}
	report := BatchReport{Tables: bt.Tables, CandidateFeatures: newCols}
	seen := map[string]bool{}
	for _, j := range selected {
		src := sourceColumn(view.Names[j])
		prefix := src[:strings.Index(src, ".")+1]
		ord, ok := owner[prefix]
		if !ok || seen[src] {
			continue
		}
		seen[src] = true
		r.st.KeptByCandidate[ord] = append(r.st.KeptByCandidate[ord], strings.TrimPrefix(src, prefix))
		report.KeptFeatures = append(report.KeptFeatures, src)
		if col := work.Column(src); col != nil && !r.st.Accum.HasColumn(src) {
			if err := r.st.Accum.AddColumn(col); err != nil {
				return false, err
			}
		}
	}
	span.SetInt("features_selected", int64(len(report.KeptFeatures)))
	r.tr.Counter("select.features_offered").Add(int64(newCols))
	r.tr.Counter("select.features_kept").Add(int64(len(report.KeptFeatures)))
	o.logf("batch %d/%d: %d tables, %d candidate features, kept %d",
		b+1, len(r.plan), len(bt.Tables), newCols, len(report.KeptFeatures))
	r.st.Result.Batches = append(r.st.Result.Batches, report)
	return true, nil
}

// runSelector runs the selector with the run's hooks attached for the call:
// its span and the selection clock.
func (r *run) runSelector(ctx context.Context, span *obs.Span, ds *ml.Dataset, b int) ([]int, error) {
	sel := r.opts.Selector
	if sa, ok := sel.(obs.SpanAttacher); ok {
		sa.AttachSpan(span)
		defer sa.AttachSpan(nil)
	}
	defer func(start time.Time) { r.st.Result.SelectionElapsed += time.Since(start) }(time.Now())
	// The context-aware path stops a canceled run's selection promptly.
	if cs, ok := sel.(featsel.ContextSelector); ok {
		return cs.SelectCtx(ctx, ds, r.estimator, selectSeed(r.opts.Seed, b))
	}
	return sel.Select(ds, r.estimator, selectSeed(r.opts.Seed, b))
}

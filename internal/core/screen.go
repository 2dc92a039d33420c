package core

import (
	"context"
	"sort"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/parallel"
)

// The screen stage sits between coreset and join. One RIFS round ranks real
// features against injected noise on the coreset's rows, and it stops telling
// them apart once features outnumber rows; a repository whose candidates add
// up to more than that used to be cut into budget batches, each its own d > n
// round. The screen instead joins every candidate to the coreset on its own,
// scores it by the best univariate F statistic among the columns it adds, and
// passes on — in candidate order — the best-scoring tables whose estimated
// features fit the coreset's row count. When everything already fits it does
// nothing, joins nothing and records nothing.

// ScreenedTable is the screen stage's verdict on one candidate join.
type ScreenedTable struct {
	// Name is the candidate table's name.
	Name string
	// Features is EstimateFeatures of the candidate: what it costs of the
	// stage's capacity.
	Features int
	// Score is the largest univariate F statistic (FClassif / FRegression
	// against the target, on the coreset) among the feature columns the join
	// adds; 0 for a candidate quarantined at the stage.
	Score float64
	// Kept reports whether the candidate went on to the join plan.
	Kept bool
}

// screenInput is everything the stage reads.
type screenInput struct {
	// Coreset is the coreset base table every candidate is joined to, alone.
	Coreset *dataframe.Table
	// Cands are the candidates that survived the prefilter, in score order.
	Cands []discovery.Candidate
	// Capacity is the number of candidate features one selection round can
	// rank: the coreset's row count.
	Capacity int
	Task     ml.Task
	Classes  int
	// Opts supplies the target, the run seed, the join settings and the
	// fault injector.
	Opts *Options
	// Prep is the run's preparation cache; what the stage aggregates or
	// resamples here, join and materialize reuse.
	Prep *join.PrepCache
}

// screenOutcome is everything the stage decides, and what its checkpoint
// stores.
type screenOutcome struct {
	// Kept holds the ordinals (into screenInput.Cands) that go on, ascending.
	Kept []int
	// Tables holds one verdict per candidate, in candidate order; nil when
	// the candidates fit and nothing was scored.
	Tables []ScreenedTable
}

// keptOrdinals lists the ordinals a verdict list keeps, ascending.
func keptOrdinals(tables []ScreenedTable) []int {
	kept := make([]int, 0, len(tables))
	for ord, t := range tables {
		if t.Kept {
			kept = append(kept, ord)
		}
	}
	return kept
}

// keep returns the surviving candidates, in their original order.
func (o *screenOutcome) keep(cands []discovery.Candidate) []discovery.Candidate {
	out := make([]discovery.Candidate, len(o.Kept))
	for i, ord := range o.Kept {
		out[i] = cands[ord]
	}
	return out
}

// screenCandidates runs the stage. Candidates fan out over the worker pool
// and are merged by ordinal, so the outcome is the same at any worker count.
// A candidate whose join faults does not go on; its fault is returned in
// faults[ordinal] for the caller to quarantine (faults is nil when nothing
// was scored). The error is non-nil only when ctx ended the stage early.
func screenCandidates(ctx context.Context, in screenInput) (out *screenOutcome, faults []error, err error) {
	features := make([]int, len(in.Cands))
	total := 0
	for i, c := range in.Cands {
		features[i] = EstimateFeatures(c)
		total += features[i]
	}
	out = &screenOutcome{Kept: make([]int, 0, len(in.Cands))}
	if total <= in.Capacity {
		for i := range in.Cands {
			out.Kept = append(out.Kept, i)
		}
		return out, nil, nil
	}

	y, err := in.Coreset.TargetVector(in.Opts.Target)
	if err != nil {
		return nil, nil, err
	}
	type scored struct {
		score float64
		err   error
	}
	results, err := parallel.MapCtx(ctx, 0, len(in.Cands), func(ord int) (scored, error) {
		s, err := screenScore(ctx, &in, ord, y)
		if isInterrupt(err) {
			return scored{}, err
		}
		return scored{s, err}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	out.Tables = make([]ScreenedTable, len(in.Cands))
	faults = make([]error, len(in.Cands))
	order := make([]int, 0, len(in.Cands))
	for ord, r := range results {
		out.Tables[ord] = ScreenedTable{Name: in.Cands[ord].Table.Name(), Features: features[ord], Score: r.score}
		if faults[ord] = r.err; r.err == nil {
			order = append(order, ord)
		}
	}
	// Best score first, ties in candidate order. Every table that still fits
	// is kept; the best one is kept even when it alone exceeds the capacity,
	// the way BuildPlan ships an oversized table as its own batch.
	sort.SliceStable(order, func(a, b int) bool {
		return out.Tables[order[a]].Score > out.Tables[order[b]].Score
	})
	used := 0
	for rank, ord := range order {
		if rank > 0 && used+features[ord] > in.Capacity {
			continue
		}
		used += features[ord]
		out.Tables[ord].Kept = true
	}
	out.Kept = keptOrdinals(out.Tables)
	return out, faults, nil
}

// screenScore joins candidate ord to the coreset alone, inside the same fault
// boundary as every other join, and returns the best F statistic among the
// columns it adds — encoded and mean-filled the way selection would see them.
func screenScore(ctx context.Context, in *screenInput, ord int, y []float64) (best float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			best, err = 0, recoveredError(v)
		}
	}()
	cand := in.Cands[ord]
	jr, err := guardedJoin(ctx, in.Opts, in.Prep, "screen", ord, in.Coreset, cand, "screen.",
		seedStageScreen, int64(ord))
	if err != nil || len(jr.AddedColumns) == 0 {
		return 0, err
	}
	added := make([]dataframe.Column, len(jr.AddedColumns))
	for i, name := range jr.AddedColumns {
		added[i] = jr.Table.Column(name)
	}
	view := dataframe.MustNewTable(cand.Table.Name(), added...).ToNumericView()
	ds, err := ml.NewDataset(view.Data, view.Rows, view.Cols, y, in.Task, in.Classes)
	if err != nil {
		return 0, err
	}
	ds.CleanNaNs()
	fs, err := (&featsel.FTestRanker{}).Rank(ds, 0)
	if err != nil {
		return 0, err
	}
	for _, f := range fs {
		if f > best {
			best = f
		}
	}
	return best, nil
}

package core

import (
	"fmt"
	"sort"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/discovery"
)

// Resource budgets: Options.MaxCells and Options.MaxCandidateBytes bound a
// run's projected working set. A run over budget does not fail — it walks a
// deterministic degradation ladder, shedding the least valuable work first:
//
//  1. tighten the tuple-ratio prefilter (halve τ, up to 4 times) — drops
//     the high-fanout candidates that inflate the joined width most;
//  2. shrink the coreset (halve, floor 64 rows) — the paper's own lever for
//     trading fidelity against cost;
//  3. cap candidates in descending discovery-score order — keep the most
//     promising prefix that fits.
//
// Every step is a pure function of (inputs, options), so the ladder takes
// identical steps at any worker count, and each step is recorded in
// Result.Degraded and the budget.* counters.

// budgetFloorCoreset is the smallest coreset the ladder will shrink to;
// below this the sample is too small for selection to mean anything.
const budgetFloorCoreset = 64

// maxTauTightenings caps rung 1 of the ladder.
const maxTauTightenings = 4

// estimateCells projects the working-set size in cells: coreset rows times
// the base width plus every column the admitted candidates could add.
func estimateCells(rows, baseCols int, cands []discovery.Candidate) int64 {
	cols := int64(baseCols)
	for _, c := range cands {
		added := c.Table.NumCols() - len(c.Keys)
		if added > 0 {
			cols += int64(added)
		}
	}
	return int64(rows) * cols
}

// estimateCandidateBytes sums the admitted candidate tables' cell counts at
// 8 bytes per cell, counting each distinct table once (several candidates
// may propose different keys into the same table).
func estimateCandidateBytes(cands []discovery.Candidate) int64 {
	seen := make(map[string]bool, len(cands))
	var total int64
	for _, c := range cands {
		name := c.Table.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		total += int64(c.Table.NumRows()) * int64(c.Table.NumCols()) * 8
	}
	return total
}

// applyBudgets runs the degradation ladder. It returns the admitted
// candidates (original order preserved), the possibly shrunk coreset size,
// the number of additional candidates removed by prefilter tightening (to
// keep Result.CandidatesFiltered honest), and the recorded steps.
func applyBudgets(baseRows, baseCols int, cands []discovery.Candidate, size int, opts *Options) ([]discovery.Candidate, int, int, []Degradation) {
	if opts.MaxCells <= 0 && opts.MaxCandidateBytes <= 0 {
		return cands, size, 0, nil
	}
	var degs []Degradation
	extraFiltered := 0
	rows := size
	if rows > baseRows || opts.CoresetStrategy == coreset.Sketch {
		rows = baseRows
	}

	// Rung 1: tighten the tuple-ratio prefilter. Only meaningful when the
	// prefilter is on (τ > 0) — inventing a τ the user didn't ask for would
	// change semantics beyond the budget's mandate.
	tau := opts.TupleRatioTau
	for i := 0; i < maxTauTightenings && opts.MaxCells > 0 && tau > 0; i++ {
		before := estimateCells(rows, baseCols, cands)
		if before <= opts.MaxCells {
			break
		}
		tau /= 2
		next, removed := FilterTupleRatio(baseRows, cands, tau)
		if len(next) == len(cands) {
			continue // no candidate crossed the tighter threshold; try again
		}
		cands = next
		extraFiltered += removed
		degs = append(degs, Degradation{
			Action: "tighten-tuple-ratio",
			Budget: "max-cells",
			Detail: fmt.Sprintf("τ=%g, %d candidates dropped", tau, removed),
			Before: before,
			After:  estimateCells(rows, baseCols, cands),
		})
	}

	// Rung 2: shrink the coreset.
	for opts.MaxCells > 0 && size > budgetFloorCoreset {
		before := estimateCells(rows, baseCols, cands)
		if before <= opts.MaxCells {
			break
		}
		size /= 2
		if size < budgetFloorCoreset {
			size = budgetFloorCoreset
		}
		if size < rows && opts.CoresetStrategy != coreset.Sketch {
			// Sketching joins on all rows (the sketch happens post-encode),
			// so a smaller sketch does not shrink the joined working set.
			rows = size
		}
		degs = append(degs, Degradation{
			Action: "shrink-coreset",
			Budget: "max-cells",
			Detail: fmt.Sprintf("coreset=%d rows", size),
			Before: before,
			After:  estimateCells(rows, baseCols, cands),
		})
	}

	// Rung 3: cap candidates by score.
	kept, deg := capCandidates(rows, baseCols, cands, opts)
	if deg != nil {
		degs = append(degs, *deg)
	}
	return kept, size, extraFiltered, degs
}

// capCandidates is the ladder's last rung. Admission walks candidates in
// descending score (ties broken by original position, so the order is total
// and deterministic) and keeps each one only if the running cells and bytes
// estimates stay within every configured budget. The admitted set keeps its
// original relative order — the join plan depends on it. It returns cands
// and nil when they already fit.
func capCandidates(rows, baseCols int, cands []discovery.Candidate, opts *Options) ([]discovery.Candidate, *Degradation) {
	cellsBefore := estimateCells(rows, baseCols, cands)
	bytesBefore := estimateCandidateBytes(cands)
	overCells := opts.MaxCells > 0 && cellsBefore > opts.MaxCells
	overBytes := opts.MaxCandidateBytes > 0 && bytesBefore > opts.MaxCandidateBytes
	if !overCells && !overBytes {
		return cands, nil
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cands[order[a]].Score > cands[order[b]].Score
	})
	admitted := make([]bool, len(cands))
	cells := int64(rows) * int64(baseCols)
	var bytes int64
	seenBytes := make(map[string]bool)
	for _, i := range order {
		c := cands[i]
		addCells := int64(rows) * int64(max(c.Table.NumCols()-len(c.Keys), 0))
		addBytes := int64(0)
		if !seenBytes[c.Table.Name()] {
			addBytes = int64(c.Table.NumRows()) * int64(c.Table.NumCols()) * 8
		}
		if opts.MaxCells > 0 && cells+addCells > opts.MaxCells ||
			opts.MaxCandidateBytes > 0 && bytes+addBytes > opts.MaxCandidateBytes {
			continue
		}
		admitted[i] = true
		cells += addCells
		bytes += addBytes
		seenBytes[c.Table.Name()] = true
	}
	kept := cands[:0:0]
	for i, c := range cands {
		if admitted[i] {
			kept = append(kept, c)
		}
	}
	deg := &Degradation{
		Action: "cap-candidates", Budget: "max-cells",
		Detail: fmt.Sprintf("admitted %d of %d candidates by score", len(kept), len(cands)),
		Before: cellsBefore, After: estimateCells(rows, baseCols, kept),
	}
	if overBytes {
		deg.Budget, deg.Before, deg.After = "max-candidate-bytes", bytesBefore, estimateCandidateBytes(kept)
	}
	return kept, deg
}

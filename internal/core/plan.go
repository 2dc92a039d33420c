package core

import (
	"strconv"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
)

// Batch is one unit of the join plan: the candidates joined together before
// a feature-selection pass.
type Batch struct {
	Candidates []discovery.Candidate
	// EstimatedFeatures is the projected number of numeric feature columns
	// the batch contributes.
	EstimatedFeatures int
}

// EstimateFeatures projects how many numeric feature columns a candidate
// join adds: one per numeric/time column, and one per one-hot indicator for
// categorical columns (capped at dataframe.MaxOneHotCardinality), excluding
// the join-key columns.
func EstimateFeatures(c discovery.Candidate) int {
	keyCols := make(map[string]bool, len(c.Keys))
	for _, kp := range c.Keys {
		keyCols[kp.ForeignColumn] = true
	}
	total := 0
	for _, col := range c.Table.Columns() {
		if keyCols[col.Name()] {
			continue
		}
		switch cc := col.(type) {
		case *dataframe.CategoricalColumn:
			card := cc.Cardinality()
			if card > dataframe.MaxOneHotCardinality {
				card = dataframe.MaxOneHotCardinality
			}
			total += card
		default:
			total++
		}
	}
	return total
}

// BuildPlan groups score-ordered candidates into batches according to the
// plan kind and feature budget (§4 "Table grouping"). Candidates are assumed
// already sorted by descending discovery score. A single candidate exceeding
// the budget ships as its own batch (the paper's exception rule).
func BuildPlan(cands []discovery.Candidate, kind PlanKind, budget int) []Batch {
	switch kind {
	case TableJoin:
		out := make([]Batch, 0, len(cands))
		for _, c := range cands {
			out = append(out, Batch{
				Candidates:        []discovery.Candidate{c},
				EstimatedFeatures: EstimateFeatures(c),
			})
		}
		return out
	case FullMaterialization:
		if len(cands) == 0 {
			return nil
		}
		total := 0
		for _, c := range cands {
			total += EstimateFeatures(c)
		}
		return []Batch{{Candidates: cands, EstimatedFeatures: total}}
	default: // BudgetJoin
		var out []Batch
		var cur Batch
		for _, c := range cands {
			f := EstimateFeatures(c)
			if f >= budget {
				// Oversized table ships alone, flushing any open batch.
				if len(cur.Candidates) > 0 {
					out = append(out, cur)
					cur = Batch{}
				}
				out = append(out, Batch{Candidates: []discovery.Candidate{c}, EstimatedFeatures: f})
				continue
			}
			if cur.EstimatedFeatures+f > budget && len(cur.Candidates) > 0 {
				out = append(out, cur)
				cur = Batch{}
			}
			cur.Candidates = append(cur.Candidates, c)
			cur.EstimatedFeatures += f
		}
		if len(cur.Candidates) > 0 {
			out = append(out, cur)
		}
		return out
	}
}

// DedupeCandidates keeps at most one candidate per (table, key-set) pair and
// drops self-joins with the base table — by identity or by name, so a
// repository that happens to contain a copy of the base file cannot leak the
// target back in as a feature. Score order is preserved. Discovery may emit
// both a single-key and composite-key candidate for a table; both are kept
// (the paper's "multiple-option key join" joins on each key separately).
func DedupeCandidates(base *dataframe.Table, cands []discovery.Candidate) []discovery.Candidate {
	seen := make(map[string]bool)
	out := make([]discovery.Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Table == base || c.Table.Name() == base.Name() {
			continue
		}
		// Quoted names are self-delimiting, so distinct key sets never
		// render alike.
		key := strconv.Quote(c.Table.Name())
		for _, kp := range c.Keys {
			key += strconv.Quote(kp.BaseColumn) + strconv.Quote(kp.ForeignColumn)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

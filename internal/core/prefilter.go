package core

import (
	"strconv"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/join"
)

// TupleRatio computes Kumar et al.'s ratio nS/nR for a candidate join: the
// number of base-table training examples divided by the size of the
// foreign-key domain (the count of distinct join-key values in the foreign
// table). The associated decision rule states that a foreign table is highly
// unlikely to help a predictive model when the ratio exceeds a tuned
// threshold τ.
func TupleRatio(baseRows int, c discovery.Candidate) float64 {
	domain := KeyDomainSize(c)
	if domain == 0 {
		return 0
	}
	return float64(baseRows) / float64(domain)
}

// KeyDomainSize counts distinct (composite) join-key values in the
// candidate's foreign table, grouping keys exactly as the join does.
func KeyDomainSize(c discovery.Candidate) int {
	cols := make([]dataframe.Column, 0, len(c.Keys))
	for _, kp := range c.Keys {
		col := c.Table.Column(kp.ForeignColumn)
		if col == nil {
			return 0
		}
		cols = append(cols, col)
	}
	return join.DistinctKeys(cols, c.Table.NumRows())
}

// FilterTupleRatio drops candidates whose tuple ratio exceeds tau, returning
// the survivors and the number of distinct tables removed.
func FilterTupleRatio(baseRows int, cands []discovery.Candidate, tau float64) ([]discovery.Candidate, int) {
	if tau <= 0 {
		return cands, 0
	}
	removedTables := make(map[string]bool)
	keptTables := make(map[string]bool)
	out := make([]discovery.Candidate, 0, len(cands))
	for _, c := range cands {
		if TupleRatio(baseRows, c) > tau {
			removedTables[c.Table.Name()] = true
			continue
		}
		keptTables[c.Table.Name()] = true
		out = append(out, c)
	}
	removed := 0
	for name := range removedTables {
		if !keptTables[name] {
			removed++
		}
	}
	return out, removed
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

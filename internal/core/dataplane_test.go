package core

import (
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/synth"
)

// TestAugmentKeptTablesDeduped asserts KeptTables lists each contributing
// foreign table once even when several of its candidate joins keep columns.
func TestAugmentKeptTablesDeduped(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.2})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	if len(cands) == 0 {
		t.Fatal("discovery found nothing")
	}
	res, err := Augment(corpus.Base, cands, Options{
		Target:      corpus.Target,
		CoresetSize: 192,
		Selector:    &featsel.RIFS{Config: featsel.RIFSConfig{K: 3, Forest: featsel.ForestRanker{NTrees: 15, MaxDepth: 6}}},
		Estimator:   fastEstimator(1),
		Seed:        62,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(res.KeptTables))
	for _, name := range res.KeptTables {
		if seen[name] {
			t.Fatalf("table %q listed twice in KeptTables %v", name, res.KeptTables)
		}
		seen[name] = true
	}
}

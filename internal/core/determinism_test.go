package core

import (
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
)

// TestAugmentWorkersDeterminism runs the full pipeline twice — Workers=1 and
// Workers=8 — under one seed and asserts identical output: same kept columns,
// same kept tables, same scores. This is the end-to-end check of the
// per-stage seed-splitting contract (no stage's randomness may depend on
// scheduling or on what ran before it).
func TestAugmentWorkersDeterminism(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.2})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	if len(cands) == 0 {
		t.Fatal("discovery found nothing")
	}
	run := func(workers int) *Result {
		res, err := Augment(corpus.Base, cands, Options{
			Target:      corpus.Target,
			CoresetSize: 192,
			Selector:    &featsel.RIFS{Config: featsel.RIFSConfig{K: 3, Forest: featsel.ForestRanker{NTrees: 15, MaxDepth: 6}}},
			Estimator:   fastEstimator(1),
			Seed:        62,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	eight := run(8)

	if len(one.KeptColumns) != len(eight.KeptColumns) {
		t.Fatalf("kept columns differ: %v vs %v", one.KeptColumns, eight.KeptColumns)
	}
	for i := range one.KeptColumns {
		if one.KeptColumns[i] != eight.KeptColumns[i] {
			t.Fatalf("kept columns differ: %v vs %v", one.KeptColumns, eight.KeptColumns)
		}
	}
	for i := range one.KeptTables {
		if one.KeptTables[i] != eight.KeptTables[i] {
			t.Fatalf("kept tables differ: %v vs %v", one.KeptTables, eight.KeptTables)
		}
	}
	if one.BaseScore != eight.BaseScore || one.FinalScore != eight.FinalScore {
		t.Fatalf("scores differ across worker counts: base %v vs %v, final %v vs %v",
			one.BaseScore, eight.BaseScore, one.FinalScore, eight.FinalScore)
	}
}

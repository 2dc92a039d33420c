package core

import (
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/synth"
)

func TestTaskOf(t *testing.T) {
	tab := dataframe.MustNewTable("t",
		dataframe.NewCategorical("c", []string{"a", "b"}),
		dataframe.NewNumeric("r", []float64{1, 2}),
	)
	task, classes, err := TaskOf(tab, "c")
	if err != nil || task != ml.Classification || classes != 2 {
		t.Fatalf("TaskOf(c) = %v %d %v", task, classes, err)
	}
	task, _, err = TaskOf(tab, "r")
	if err != nil || task != ml.Regression {
		t.Fatalf("TaskOf(r) = %v %v", task, err)
	}
	if _, _, err := TaskOf(tab, "absent"); err == nil {
		t.Fatal("absent target should error")
	}
}

func candidateFor(tab *dataframe.Table, baseCol, foreignCol string, rows int) discovery.Candidate {
	return discovery.Candidate{
		Table: tab,
		Keys:  []join.KeyPair{{BaseColumn: baseCol, ForeignColumn: foreignCol, Kind: join.Hard}},
		Score: 1,
	}
}

func TestEstimateFeatures(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("v", []float64{1, 2}),
		dataframe.NewCategorical("c", []string{"x", "y"}),
	)
	c := candidateFor(tab, "k", "k", 2)
	// v (1) + c binarized (2 categories) = 3; key k excluded.
	if got := EstimateFeatures(c); got != 3 {
		t.Fatalf("EstimateFeatures = %d, want 3", got)
	}
}

func TestTupleRatioAndFilter(t *testing.T) {
	small := dataframe.MustNewTable("small",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("v", []float64{1, 2}),
	)
	big := dataframe.MustNewTable("big",
		dataframe.NewCategorical("k", []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}),
		dataframe.NewNumeric("v", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
	)
	cs := candidateFor(small, "k", "k", 2)
	cb := candidateFor(big, "k", "k", 10)
	// Base of 100 rows: ratios 50 and 10.
	if got := TupleRatio(100, cs); got != 50 {
		t.Fatalf("TupleRatio(small) = %v", got)
	}
	if got := TupleRatio(100, cb); got != 10 {
		t.Fatalf("TupleRatio(big) = %v", got)
	}
	kept, removed := FilterTupleRatio(100, []discovery.Candidate{cs, cb}, 20)
	if len(kept) != 1 || kept[0].Table.Name() != "big" || removed != 1 {
		t.Fatalf("filter kept %d removed %d", len(kept), removed)
	}
	// tau <= 0 disables filtering.
	kept, removed = FilterTupleRatio(100, []discovery.Candidate{cs, cb}, 0)
	if len(kept) != 2 || removed != 0 {
		t.Fatal("tau=0 should disable the filter")
	}
	// Two composite keys whose parts only differ in where a separator-like
	// byte falls are two domain values, not one.
	pair := dataframe.MustNewTable("pair",
		dataframe.NewCategorical("k1", []string{"x\x1fy", "x"}),
		dataframe.NewCategorical("k2", []string{"z", "y\x1fz"}),
	)
	cp := discovery.Candidate{Table: pair, Keys: []join.KeyPair{
		{BaseColumn: "k1", ForeignColumn: "k1", Kind: join.Hard},
		{BaseColumn: "k2", ForeignColumn: "k2", Kind: join.Hard},
	}}
	if got := TupleRatio(100, cp); got != 50 {
		t.Fatalf("TupleRatio(composite pair) = %v, want 50", got)
	}
}

func TestDedupeCandidates(t *testing.T) {
	tab := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a"}),
		dataframe.NewNumeric("v", []float64{1}),
	)
	c := candidateFor(tab, "k", "k", 1)
	base := dataframe.MustNewTable("base", dataframe.NewCategorical("k", []string{"a"}))
	out := DedupeCandidates(base, []discovery.Candidate{c, c, {Table: base}})
	if len(out) != 1 {
		t.Fatalf("dedupe kept %d, want 1", len(out))
	}
	// Key sets that only differ in where "=" falls are distinct candidates.
	ab := discovery.Candidate{Table: tab, Keys: []join.KeyPair{{BaseColumn: "a", ForeignColumn: "b=c"}}}
	ba := discovery.Candidate{Table: tab, Keys: []join.KeyPair{{BaseColumn: "a=b", ForeignColumn: "c"}}}
	if out := DedupeCandidates(base, []discovery.Candidate{ab, ba}); len(out) != 2 {
		t.Fatalf("dedupe kept %d of two distinct key sets", len(out))
	}
}

// fastEstimator keeps end-to-end tests quick.
func fastEstimator(seed int64) eval.Fitter {
	return func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, ml.ForestConfig{NTrees: 20, MaxDepth: 8, Seed: seed, Parallel: true})
	}
}

func TestAugmentEndToEndPoverty(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 41, Scale: 0.3})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	if len(cands) == 0 {
		t.Fatal("discovery found nothing")
	}
	res, err := Augment(corpus.Base, cands, Options{
		Target:      corpus.Target,
		CoresetSize: 256,
		Selector:    &featsel.RIFS{Config: featsel.RIFSConfig{K: 4, Forest: featsel.ForestRanker{NTrees: 20, MaxDepth: 8}}},
		Estimator:   fastEstimator(1),
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != corpus.Base.NumRows() {
		t.Fatal("augmented table must preserve base rows")
	}
	if len(res.KeptColumns) == 0 {
		t.Fatal("augmentation kept no columns on a corpus with planted signal")
	}
	if res.FinalScore <= res.BaseScore {
		t.Fatalf("augmentation did not improve: base=%.3f final=%.3f", res.BaseScore, res.FinalScore)
	}
	// At least one kept table must be genuinely relevant.
	foundRelevant := false
	for _, name := range res.KeptTables {
		if corpus.RelevantTables[name] {
			foundRelevant = true
		}
	}
	if !foundRelevant {
		t.Fatalf("kept tables %v contain no planted-signal table", res.KeptTables)
	}
}

func TestAugmentClassification(t *testing.T) {
	corpus := synth.SchoolS(synth.Config{Seed: 43, Scale: 0.25})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	res, err := Augment(corpus.Base, cands, Options{
		Target:      corpus.Target,
		CoresetSize: 256,
		Selector:    &featsel.RIFS{Config: featsel.RIFSConfig{K: 4, Forest: featsel.ForestRanker{NTrees: 20, MaxDepth: 8}}},
		Estimator:   fastEstimator(2),
		Seed:        44,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalScore <= res.BaseScore {
		t.Fatalf("classification augmentation did not improve: base=%.3f final=%.3f",
			res.BaseScore, res.FinalScore)
	}
}

func TestAugmentRequiresTarget(t *testing.T) {
	base := dataframe.MustNewTable("b", dataframe.NewNumeric("x", []float64{1}))
	if _, err := Augment(base, nil, Options{}); err == nil {
		t.Fatal("missing target should error")
	}
	if _, err := Augment(base, nil, Options{Target: "nope"}); err == nil {
		t.Fatal("absent target column should error")
	}
}

func TestAugmentSelectorTaskMismatch(t *testing.T) {
	base := dataframe.MustNewTable("b",
		dataframe.NewNumeric("y", []float64{0.5, 1.5}),
		dataframe.NewNumeric("x", []float64{1, 2}),
	)
	sel, _ := featsel.New(featsel.MethodLinearSVC) // classification-only
	_, err := Augment(base, nil, Options{Target: "y", Selector: sel})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("linear svc on a numeric target should be rejected as a task mismatch, got %v", err)
	}
}

func TestDedupeCandidatesDropsSameNamedTable(t *testing.T) {
	// A repository holding a copy of the base file (same table name) must
	// never become a join candidate — it would leak the target back in.
	base := dataframe.MustNewTable("base",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("y", []float64{1, 2}),
	)
	copyOfBase := dataframe.MustNewTable("base",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("y", []float64{1, 2}),
	)
	c := candidateFor(copyOfBase, "k", "k", 2)
	out := DedupeCandidates(base, []discovery.Candidate{c})
	if len(out) != 0 {
		t.Fatal("same-named table must be dropped to prevent target leakage")
	}
}

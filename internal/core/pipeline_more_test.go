package core

import (
	"math"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/synth"
)

// fastRIFS keeps end-to-end option tests quick.
func fastRIFS() featsel.Selector {
	return &featsel.RIFS{Config: featsel.RIFSConfig{
		K:      3,
		Forest: featsel.ForestRanker{NTrees: 15, MaxDepth: 7},
	}}
}

func TestAugmentTupleRatioFilterRemovesTables(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 57, Scale: 0.15})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	// A tiny tau removes everything with a large base/domain ratio —
	// including the state-keyed tables (50 distinct keys vs hundreds of
	// base rows).
	res, err := Augment(corpus.Base, cands, Options{
		Target:        corpus.Target,
		TupleRatioTau: 1.5,
		CoresetSize:   160,
		Selector:      fastRIFS(),
		Estimator:     fastEstimator(6),
		Seed:          58,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesFiltered == 0 {
		t.Fatal("tau=1.5 should remove the state-level tables")
	}
	for _, name := range res.KeptTables {
		if name == "state_economy" || name == "trade" {
			t.Fatalf("table %s should have been prefiltered", name)
		}
	}
}

func TestAugmentColumnPrefixes(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.15})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	res, err := Augment(corpus.Base, cands, Options{
		Target:      corpus.Target,
		CoresetSize: 160,
		Selector:    fastRIFS(),
		Estimator:   fastEstimator(8),
		Seed:        62,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range res.KeptColumns {
		if !strings.HasPrefix(col, "t") || !strings.Contains(col, ".") {
			t.Fatalf("kept column %q lacks the per-candidate prefix", col)
		}
		if !res.Table.HasColumn(col) {
			t.Fatalf("kept column %q missing from the materialized table", col)
		}
	}
	// All base columns must survive untouched.
	for _, name := range corpus.Base.ColumnNames() {
		if !res.Table.HasColumn(name) {
			t.Fatalf("base column %q lost during augmentation", name)
		}
	}
}

func TestSourceColumn(t *testing.T) {
	cases := map[string]string{
		"t3.temp":       "t3.temp",
		"t3.city=NYC":   "t3.city",
		"t3.city=<oth>": "t3.city",
		"plain":         "plain",
	}
	for in, want := range cases {
		if got := sourceColumn(in); got != want {
			t.Fatalf("sourceColumn(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSpecForDefaults(t *testing.T) {
	cand := discovery.Candidate{Keys: []join.KeyPair{{BaseColumn: "a", ForeignColumn: "b"}}}
	spec := specFor(cand, Options{}, "p.")
	if spec.Prefix != "p." || spec.TimeResample != true {
		t.Fatalf("spec defaults wrong: %+v", spec)
	}
	spec = specFor(cand, Options{DisableTimeResample: true}, "q.")
	if spec.TimeResample {
		t.Fatalf("spec overrides wrong: %+v", spec)
	}
}

func TestAugmentSignificance(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 63, Scale: 0.15})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	res, err := Augment(corpus.Base, cands, Options{
		Target:       corpus.Target,
		CoresetSize:  160,
		Selector:     fastRIFS(),
		Estimator:    fastEstimator(9),
		Significance: 200,
		Seed:         64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Significance == nil {
		t.Fatal("significance test not recorded")
	}
	if res.Significance.AugScore <= res.Significance.BaseScore {
		t.Fatalf("significance point estimates inverted: %+v", res.Significance)
	}
	if !res.Significance.Significant(0.1) {
		t.Fatalf("planted-signal augmentation should be significant: p=%v", res.Significance.PValue)
	}
	if res.Table.MissingCells() != 0 {
		t.Fatal("imputation left missing cells")
	}
}

func TestAugmentDoesNotMutateInput(t *testing.T) {
	// Base table with missing values, no coreset reduction (size >= rows):
	// imputation during the run must not leak into the caller's table.
	base := dataframe.MustNewTable("b",
		dataframe.NewCategorical("k", []string{"a", "b", "c", "d"}),
		dataframe.NewNumeric("x", []float64{1, math.NaN(), 3, 4}),
		dataframe.NewNumeric("y", []float64{1, 2, 3, 4}),
	)
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", []string{"a", "b"}),
		dataframe.NewNumeric("v", []float64{10, 20}),
	)
	cands := discovery.Discover(base, []*dataframe.Table{foreign}, "y", discovery.Options{})
	before := base.MissingCells()
	_, err := Augment(base, cands, Options{
		Target:    "y",
		Selector:  featsel.AllFeatures{},
		Estimator: fastEstimator(11),
		Seed:      67,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.MissingCells() != before {
		t.Fatalf("Augment mutated the caller's table: missing %d -> %d",
			before, base.MissingCells())
	}
}

package featsel

import (
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/parallel"
)

// TestRIFSWorkersDeterminism asserts the seed-splitting contract end to end:
// RStar and Select must produce bit-identical output whether the repetitions,
// ranking halves, and threshold sweep run on one worker or eight — at the
// default (ν = 1, the forest alone) and with the paper's ensemble (ν = 0.5),
// whose two halves run as concurrent work items.
func TestRIFSWorkersDeterminism(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	ds := planted(ml.Classification, 200, 3, 20, 51)
	for _, nu := range []float64{0, 0.5} {
		r := &RIFS{Config: RIFSConfig{K: 4, Nu: nu, Forest: ForestRanker{NTrees: 15, MaxDepth: 6}}}

		parallel.SetMaxWorkers(1)
		rstar1, err := r.RStar(ds, 52)
		if err != nil {
			t.Fatal(err)
		}
		sel1, err := r.Select(ds, fastForest(7), 53)
		if err != nil {
			t.Fatal(err)
		}

		parallel.SetMaxWorkers(8)
		rstar8, err := r.RStar(ds, 52)
		if err != nil {
			t.Fatal(err)
		}
		sel8, err := r.Select(ds, fastForest(7), 53)
		if err != nil {
			t.Fatal(err)
		}

		for j := range rstar1 {
			if rstar1[j] != rstar8[j] {
				t.Fatalf("nu=%v: r*[%d] differs across worker counts: %v vs %v", nu, j, rstar1[j], rstar8[j])
			}
		}
		if len(sel1) != len(sel8) {
			t.Fatalf("nu=%v: selected %d features with 1 worker, %d with 8: %v vs %v",
				nu, len(sel1), len(sel8), sel1, sel8)
		}
		for i := range sel1 {
			if sel1[i] != sel8[i] {
				t.Fatalf("nu=%v: selection differs across worker counts: %v vs %v", nu, sel1, sel8)
			}
		}
	}
}

// TestVoteWorkersDeterminism: the vote ensemble must agree across worker
// counts too — members write indexed slots and derive member-indexed seeds.
func TestVoteWorkersDeterminism(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	ds := planted(ml.Regression, 150, 2, 10, 54)
	mk := func() *VoteSelector {
		return &VoteSelector{
			Selectors: []Selector{
				&RankingSelector{Ranker: &FTestRanker{}},
				&RankingSelector{Ranker: &MutualInfoRanker{}},
				&RankingSelector{Ranker: &ForestRanker{NTrees: 10, MaxDepth: 5}},
			},
			Parallel: true,
		}
	}
	parallel.SetMaxWorkers(1)
	one, err := mk().Select(ds, fastForest(8), 55)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetMaxWorkers(8)
	eight, err := mk().Select(ds, fastForest(8), 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(eight) {
		t.Fatalf("vote differs: %v vs %v", one, eight)
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("vote differs: %v vs %v", one, eight)
		}
	}
}

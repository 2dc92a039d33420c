package featsel

import (
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// TestSelectHistogramCounts: select.tree_fit counts the RIFS ranking-forest
// trees alone (K·NTrees), and select.subset_score one observation per
// distinct threshold subset the sweep scores with the run's estimator.
func TestSelectHistogramCounts(t *testing.T) {
	ds := planted(ml.Regression, 140, 2, 12, 11)
	cfg := RIFSConfig{K: 4, Forest: ForestRanker{NTrees: 8, MaxDepth: 5}}
	rstar, err := (&RIFS{Config: cfg}).RStar(ds, 42)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg
	full.defaults()
	_, uniq := thresholdSubsets(rstar, full.Thresholds)
	if len(uniq) == 0 {
		t.Fatal("fixture leaves no threshold subset to score")
	}

	tr := obs.New("test")
	r := &RIFS{Config: cfg}
	r.AttachSpan(tr.Root())
	if _, err := r.Select(ds, fastForest(3), 42); err != nil {
		t.Fatal(err)
	}
	r.AttachSpan(nil)
	h := tr.Histograms()
	if got, want := h["select.tree_fit"].Count, int64(cfg.K*cfg.Forest.NTrees); got != want {
		t.Fatalf("select.tree_fit count = %d, want K·NTrees = %d", got, want)
	}
	if got := h["select.subset_score"].Count; got != int64(len(uniq)) {
		t.Fatalf("select.subset_score count = %d, want %d distinct subsets", got, len(uniq))
	}
}

// TestThresholdSubsetsDuplicateScores: duplicate r* values straddling a
// threshold must bucket together, and uniq must deduplicate by subset size.
func TestThresholdSubsetsDuplicateScores(t *testing.T) {
	rstar := []float64{0.4, 0.4, 0.8, 0.2}
	subsets, uniq := thresholdSubsets(rstar, []float64{0.4, 0.6, 0.8})
	if len(subsets) != 3 {
		t.Fatalf("got %d subsets, want 3", len(subsets))
	}
	if len(subsets[0]) != 3 || subsets[0][0] != 0 || subsets[0][1] != 1 || subsets[0][2] != 2 {
		t.Fatalf("loosest subset = %v, want [0 1 2] (both 0.4 features clear τ=0.4)", subsets[0])
	}
	for _, s := range subsets[1:] {
		if len(s) != 1 || s[0] != 2 {
			t.Fatalf("tight subset = %v, want [2]", s)
		}
	}
	if len(uniq) != 2 {
		t.Fatalf("got %d uniq subsets, want 2 (sizes 3 and 1)", len(uniq))
	}

	// A tie in scores is not a decrease: the walk must advance through it.
	got := monotoneWalk(subsets, uniq, []float64{0.5, 0.5})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("tied scores: walk returned %v, want [2] (equal score advances)", got)
	}
}

// TestThresholdSubsetsAllBelow: when no feature clears even the loosest
// threshold there are no candidate subsets at all.
func TestThresholdSubsetsAllBelow(t *testing.T) {
	subsets, uniq := thresholdSubsets([]float64{0.1, 0.0, 0.15}, []float64{0.2, 0.4})
	if subsets != nil || uniq != nil {
		t.Fatalf("subsets = %v, uniq = %v; want none", subsets, uniq)
	}
}

// TestSweepSingleFeatureBase: a base subset of one feature survives the
// sweep machinery (positionsIn on a singleton, tighter thresholds empty).
func TestSweepSingleFeatureBase(t *testing.T) {
	if pos := positionsIn([]int{7}, []int{7}); len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("positionsIn singleton = %v, want [0]", pos)
	}
	got := walkThresholds([]float64{0.9}, []float64{0.5, 0.95},
		func(cols []int) float64 { return float64(len(cols)) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-feature sweep = %v, want [0]", got)
	}
}

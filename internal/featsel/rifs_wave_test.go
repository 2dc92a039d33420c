package featsel

import (
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// TestSweepForestWaveMatchesOpaque: declaring the estimator's forest config
// (SweepForest) switches the threshold sweep to the cross-forest wave fast
// path; the selected features must be identical to the opaque-Fitter path.
func TestSweepForestWaveMatchesOpaque(t *testing.T) {
	for _, task := range []ml.Task{ml.Classification, ml.Regression} {
		ds := planted(task, 140, 2, 14, 29)
		base := RIFSConfig{K: 4, Forest: ForestRanker{NTrees: 10, MaxDepth: 5}}
		est := fastForest(3)
		fc := ml.ForestConfig{NTrees: 15, MaxDepth: 6, Seed: 3} // == fastForest(3)

		want, err := (&RIFS{Config: base}).Select(ds, est, 42)
		if err != nil {
			t.Fatal(err)
		}
		fast := &RIFS{Config: base}
		fast.SetSweepForest(&fc)
		got, err := fast.Select(ds, est, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("task %v: wave selected %v, opaque selected %v", task, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("task %v: wave selected %v, opaque selected %v", task, got, want)
			}
		}

		// Detaching must restore the opaque path (and the same answer).
		fast.SetSweepForest(nil)
		again, err := fast.Select(ds, est, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(want) {
			t.Fatalf("task %v: detached selector returned %v, want %v", task, again, want)
		}
	}
}

// TestRStarCacheCounters: the run-level split cache must cold-build each real
// column exactly once (d misses from the prewarm) and serve every repetition
// from the cache (K·d hits), independent of scheduling.
func TestRStarCacheCounters(t *testing.T) {
	ds := planted(ml.Classification, 130, 2, 10, 7)
	tr := obs.New("test")
	r := &RIFS{Config: RIFSConfig{K: 4, Forest: ForestRanker{NTrees: 8, MaxDepth: 5}}}
	r.AttachSpan(tr.Root())
	if _, err := r.Select(ds, fastForest(5), 42); err != nil {
		t.Fatal(err)
	}
	r.AttachSpan(nil)
	m := tr.Metrics()
	d := int64(ds.D)
	if m["select.splitset_cache_misses"] != d {
		t.Fatalf("cache misses = %d, want exactly d=%d (one cold build per real column)",
			m["select.splitset_cache_misses"], d)
	}
	if want := 4 * d; m["select.splitset_cache_hits"] != want {
		t.Fatalf("cache hits = %d, want K·d=%d", m["select.splitset_cache_hits"], want)
	}
}

// TestSweepWaveCounters: with a declared estimator forest the sweep must
// report the trees it scheduled and the cache traffic of the wave.
func TestSweepWaveCounters(t *testing.T) {
	ds := planted(ml.Regression, 140, 2, 12, 11)
	tr := obs.New("test")
	fc := ml.ForestConfig{NTrees: 15, MaxDepth: 6, Seed: 3}
	r := &RIFS{Config: RIFSConfig{K: 4, Forest: ForestRanker{NTrees: 8, MaxDepth: 5}, SweepForest: &fc}}
	r.AttachSpan(tr.Root())
	sel, err := r.Select(ds, fastForest(3), 42)
	if err != nil {
		t.Fatal(err)
	}
	r.AttachSpan(nil)
	m := tr.Metrics()
	if len(sel) > 0 && m["select.trees_scheduled"] == 0 {
		t.Fatal("sweep selected features but scheduled no trees")
	}
	if m["select.trees_scheduled"]%int64(fc.NTrees) != 0 {
		t.Fatalf("trees_scheduled = %d, want a multiple of NTrees=%d",
			m["select.trees_scheduled"], fc.NTrees)
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

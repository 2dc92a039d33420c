package featsel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arda-ml/arda/internal/ml"
)

func TestExponentialSearchTinyFeatureSet(t *testing.T) {
	ds := planted(ml.Classification, 60, 1, 0, 41)
	sel := ExponentialSearch(ds, []int{0}, fastForest(1), 42)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("single-feature search = %v", sel)
	}
}

func TestExponentialSearchAllGood(t *testing.T) {
	// Every feature informative: search should keep growing to the full set
	// or stop harmlessly — never return an empty set.
	ds := planted(ml.Regression, 120, 6, 0, 43)
	order := []int{0, 1, 2, 3, 4, 5}
	sel := ExponentialSearch(ds, order, fastForest(2), 44)
	if len(sel) < 2 {
		t.Fatalf("selected %d features from an all-signal set", len(sel))
	}
}

func TestAllFeaturesSelector(t *testing.T) {
	ds := planted(ml.Regression, 30, 1, 4, 45)
	sel, err := AllFeatures{}.Select(ds, fastForest(3), 46)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != ds.D {
		t.Fatalf("all-features returned %d of %d", len(sel), ds.D)
	}
	for i, j := range sel {
		if i != j {
			t.Fatal("all-features must return the identity selection")
		}
	}
}

// Property: Order returns a permutation sorted by descending score.
func TestOrderProperty(t *testing.T) {
	f := func(scores []float64) bool {
		o := Order(scores)
		if len(o) != len(scores) {
			return false
		}
		seen := make([]bool, len(scores))
		for _, j := range o {
			if j < 0 || j >= len(scores) || seen[j] {
				return false
			}
			seen[j] = true
		}
		for i := 1; i < len(o); i++ {
			a, b := scores[o[i-1]], scores[o[i]]
			// NaNs sort last; otherwise non-increasing.
			if !isNaN(a) && !isNaN(b) && a < b {
				return false
			}
			if isNaN(a) && !isNaN(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RanksOf is equivariant under permutation — permuting the scores
// permutes the ranks identically.
func TestRanksPermutationProperty(t *testing.T) {
	f := func(scores []float64, seed int64) bool {
		if len(scores) < 2 {
			return true
		}
		ranks := RanksOf(scores)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(scores))
		shuffled := make([]float64, len(scores))
		for i, p := range perm {
			shuffled[i] = scores[p]
		}
		shuffledRanks := RanksOf(shuffled)
		for i, p := range perm {
			if shuffledRanks[i] != ranks[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// isNaN avoids importing math just for the property.
func isNaN(v float64) bool { return v != v }

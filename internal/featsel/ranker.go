// Package featsel implements the paper's contribution, RIFS (random-injection
// feature selection, §6), and the selectors of its noise-filter comparison
// (Table 6 / Figure 6) that TestClaimRIFSFiltersNoise holds: filter rankers
// (F-test, mutual information), embedded rankers (random forest importances,
// linear SVM, Relief), each paired with the Bentley–Yao exponential/binary
// subset search, and the all-features baseline. RIFS ranks with the forest
// at ν = 1 and with the forest and ℓ2,1 sparse regression at ν < 1.
package featsel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/stats"
)

// Ranker scores every feature of a dataset; higher scores indicate more
// promising features.
type Ranker interface {
	// Name returns the paper's name for the method.
	Name() string
	// Rank returns one score per feature column of ds.
	Rank(ds *ml.Dataset, seed int64) ([]float64, error)
	// Supports reports whether the ranker applies to the task (e.g. linear
	// SVC is classification-only).
	Supports(task ml.Task) bool
}

// RanksOf converts raw scores into normalized ranks in [0, 1]: the best
// feature gets 1, the worst 0, ties share the mean of their positions. NaN
// scores rank lowest.
func RanksOf(scores []float64) []float64 {
	n := len(scores)
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if math.IsNaN(sa) {
			return true
		}
		if math.IsNaN(sb) {
			return false
		}
		return sa < sb
	})
	for pos := 0; pos < n; {
		end := pos + 1
		for end < n && scores[order[end]] == scores[order[pos]] {
			end++
		}
		mean := float64(pos+end-1) / 2 / float64(n-1)
		for p := pos; p < end; p++ {
			out[order[p]] = mean
		}
		pos = end
	}
	return out
}

// Order returns feature indices sorted by descending score (ties broken by
// index for determinism).
func Order(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if math.IsNaN(sa) {
			sa = math.Inf(-1)
		}
		if math.IsNaN(sb) {
			sb = math.Inf(-1)
		}
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// ForestRanker ranks features by random-forest mean-decrease-impurity.
type ForestRanker struct {
	// NTrees, MaxDepth configure the ranking forest (defaults 60, 12).
	NTrees, MaxDepth int
	// TreeDur, when non-nil, observes each ranking tree's fit latency —
	// RIFS threads the run's "select.tree_fit" histogram here.
	TreeDur *obs.Histogram
}

// Name implements Ranker.
func (r *ForestRanker) Name() string { return "random forest" }

// Supports implements Ranker: both tasks.
func (r *ForestRanker) Supports(ml.Task) bool { return true }

// Rank implements Ranker.
func (r *ForestRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	nTrees := r.NTrees
	if nTrees <= 0 {
		nTrees = 60
	}
	depth := r.MaxDepth
	if depth <= 0 {
		depth = 12
	}
	f := ml.FitForest(ds, ml.ForestConfig{
		NTrees:   nTrees,
		MaxDepth: depth,
		Seed:     seed,
		Parallel: true,
		TreeDur:  r.TreeDur,
	})
	return f.Importances(), nil
}

// SparseRegressionRanker ranks features by the row norms of the ℓ2,1
// sparse-regression solution (§6.2).
type SparseRegressionRanker struct {
	Config ml.Sparse21Config
}

// Name implements Ranker.
func (r *SparseRegressionRanker) Name() string { return "sparse regression" }

// Supports implements Ranker: both tasks.
func (r *SparseRegressionRanker) Supports(ml.Task) bool { return true }

// Rank implements Ranker.
func (r *SparseRegressionRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	cfg := r.Config
	cfg.Seed = seed
	if cfg.MaxRows == 0 {
		cfg.MaxRows = 256
	}
	res, err := ml.SolveSparse21(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("featsel: sparse regression: %w", err)
	}
	return res.RowNorms, nil
}

// LinearSVCRanker ranks features by per-feature weight norm of a linear SVM
// (classification only).
type LinearSVCRanker struct {
	Config ml.SVMConfig
}

// Name implements Ranker.
func (r *LinearSVCRanker) Name() string { return "linear svc" }

// Supports implements Ranker: classification only.
func (r *LinearSVCRanker) Supports(t ml.Task) bool { return t == ml.Classification }

// Rank implements Ranker.
func (r *LinearSVCRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	if ds.Task != ml.Classification {
		return nil, fmt.Errorf("featsel: linear SVC ranks classification tasks only")
	}
	cfg := r.Config
	cfg.Seed = seed
	m := ml.FitLinearSVM(ds, cfg)
	return m.FeatureWeights(), nil
}

// FTestRanker ranks features by the ANOVA F statistic (classification) or
// the univariate regression F statistic.
type FTestRanker struct{}

// Name implements Ranker.
func (r *FTestRanker) Name() string { return "f-test" }

// Supports implements Ranker: both tasks.
func (r *FTestRanker) Supports(ml.Task) bool { return true }

// Rank implements Ranker.
func (r *FTestRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	out := make([]float64, ds.D)
	col := make([]float64, ds.N)
	if ds.Task == ml.Classification {
		labels := make([]int, ds.N)
		for i := range labels {
			labels[i] = ds.Label(i)
		}
		for j := 0; j < ds.D; j++ {
			extractCol(ds, j, col)
			out[j] = stats.FClassif(col, labels, ds.Classes)
		}
		return out, nil
	}
	for j := 0; j < ds.D; j++ {
		extractCol(ds, j, col)
		out[j] = stats.FRegression(col, ds.Y)
	}
	return out, nil
}

// MutualInfoRanker ranks features by binned mutual information with the
// target (the target itself is binned for regression).
type MutualInfoRanker struct {
	// Bins is the maximum number of equal-frequency bins (default 16).
	Bins int
}

// Name implements Ranker.
func (r *MutualInfoRanker) Name() string { return "mutual info" }

// Supports implements Ranker: both tasks.
func (r *MutualInfoRanker) Supports(ml.Task) bool { return true }

// Rank implements Ranker.
func (r *MutualInfoRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	bins := r.Bins
	if bins <= 0 {
		bins = 16
	}
	var labels []int
	var numLabels int
	if ds.Task == ml.Classification {
		labels = make([]int, ds.N)
		for i := range labels {
			labels[i] = ds.Label(i)
		}
		numLabels = ds.Classes
	} else {
		labels, numLabels = stats.EqualFrequencyBins(ds.Y, bins)
	}
	out := make([]float64, ds.D)
	col := make([]float64, ds.N)
	for j := 0; j < ds.D; j++ {
		extractCol(ds, j, col)
		xb, nx := stats.EqualFrequencyBins(col, bins)
		out[j] = stats.MutualInformation(xb, nx, labels, numLabels)
	}
	return out, nil
}

// extractCol copies feature column j of ds into dst.
func extractCol(ds *ml.Dataset, j int, dst []float64) {
	for i := 0; i < ds.N; i++ {
		dst[i] = ds.At(i, j)
	}
}

// newRNG returns an RNG seeded deterministically.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

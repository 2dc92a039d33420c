package featsel

import (
	"context"
	"math"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/ml"
)

// Selector chooses a subset of feature columns that should improve a
// downstream model. est is the estimator used by wrapper-style searches to
// score candidate subsets on a holdout split.
type Selector interface {
	// Name returns the paper's name for the method.
	Name() string
	// Supports reports whether the selector applies to the task.
	Supports(task ml.Task) bool
	// Select returns the chosen feature column indices (ascending order not
	// guaranteed; may be empty when nothing helps).
	Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error)
}

// ContextSelector is a Selector that also supports cooperative cancellation.
// The pipeline prefers SelectCtx when the configured selector implements it,
// so a canceled or deadline-bounded run stops selection promptly instead of
// draining the repetition queue. The context must only gate scheduling: a
// SelectCtx call that completes must return exactly what Select would, so
// selection stays bit-identical whether or not a context is supplied.
type ContextSelector interface {
	Selector
	// SelectCtx is Select under ctx; once ctx is done it returns ctx.Err()
	// (possibly wrapped). A nil ctx never cancels.
	SelectCtx(ctx context.Context, ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error)
}

// newSubsetScorer fixes a stratified holdout split for all evaluations of a
// single selector run, so subset comparisons are apples-to-apples, and
// gathers every column of ds once; ScoreAt(cols) then scores any subset, in
// any column order, without materializing it (-Inf for the empty subset).
// The evaluator holds one (train+test)×d copy of ds for the run's lifetime.
func newSubsetScorer(ds *ml.Dataset, est eval.Fitter, seed int64) *eval.SubsetEvaluator {
	all := make([]int, ds.D)
	for j := range all {
		all[j] = j
	}
	return eval.NewSubsetEvaluator(ds, eval.TrainTestSplit(ds, 0.25, seed), est, all)
}

// ExponentialSearch implements the paper's §6.3 subset search over a feature
// ordering: test 2, 4, 8, … features until the holdout score first decreases
// at 2^k, then binary-search [2^(k−1), 2^k] (Bentley–Yao); the best size seen
// wins.
func ExponentialSearch(ds *ml.Dataset, order []int, est eval.Fitter, seed int64) []int {
	return exponentialSearch(order, newSubsetScorer(ds, est, seed).ScoreAt)
}

// exponentialSearch is ExponentialSearch over a subset-scoring function.
func exponentialSearch(order []int, score func(cols []int) float64) []int {
	cache := map[int]float64{}
	at := func(k int) float64 {
		if k <= 0 {
			return math.Inf(-1)
		}
		if k > len(order) {
			k = len(order)
		}
		if v, ok := cache[k]; ok {
			return v
		}
		v := score(order[:k])
		cache[k] = v
		return v
	}
	bestK, bestScore := 0, math.Inf(-1)
	consider := func(k int) {
		if k > len(order) {
			k = len(order)
		}
		if s := at(k); s > bestScore {
			bestK, bestScore = k, s
		}
	}
	prev := math.Inf(-1)
	k := 2
	decreasedAt := 0
	for {
		if k > len(order) {
			k = len(order)
		}
		s := at(k)
		consider(k)
		if s < prev {
			decreasedAt = k
			break
		}
		prev = s
		if k == len(order) {
			break
		}
		k *= 2
	}
	if decreasedAt > 2 {
		lo, hi := decreasedAt/2, decreasedAt
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			consider(mid)
			if at(mid) >= at(lo) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	if bestK == 0 {
		bestK = min(2, len(order))
	}
	out := make([]int, bestK)
	copy(out, order[:bestK])
	return out
}

// RankingSelector pairs a Ranker with the exponential subset search — the
// construction the paper uses for random forest, mutual information, relief,
// linear SVM and f-test.
type RankingSelector struct {
	Ranker Ranker
}

// Name implements Selector.
func (s *RankingSelector) Name() string { return s.Ranker.Name() }

// Supports implements Selector.
func (s *RankingSelector) Supports(t ml.Task) bool { return s.Ranker.Supports(t) }

// Select implements Selector.
func (s *RankingSelector) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	scores, err := s.Ranker.Rank(ds, seed)
	if err != nil {
		return nil, err
	}
	return ExponentialSearch(ds, Order(scores), est, seed), nil
}

// AllFeatures is the no-selection baseline ("all features" rows in the
// paper's tables).
type AllFeatures struct{}

// Name implements Selector.
func (AllFeatures) Name() string { return "all features" }

// Supports implements Selector.
func (AllFeatures) Supports(ml.Task) bool { return true }

// Select implements Selector.
func (AllFeatures) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	out := make([]int, ds.D)
	for i := range out {
		out[i] = i
	}
	return out, nil
}

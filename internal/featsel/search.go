package featsel

import (
	"context"
	"fmt"
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
		bestK = minInt(2, len(order))
	}
	out := make([]int, bestK)
	copy(out, order[:bestK])
	return out
}

// RankingSelector pairs a Ranker with the exponential subset search — the
// construction the paper uses for random forest, sparse regression, mutual
// information, logistic regression, lasso, relief, linear SVM and f-test.
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

// ForwardSelector greedily adds the feature whose addition most improves the
// holdout score, stopping when no candidate improves it (§5 wrapper model).
type ForwardSelector struct {
	// MaxFeatures bounds the subset size (default min(d, 64)).
	MaxFeatures int
	// MaxCandidates caps candidates evaluated per round (random subsample;
	// default 40; <= 0 means all remaining features).
	MaxCandidates int
}

// Name implements Selector.
func (s *ForwardSelector) Name() string { return "forward selection" }

// Supports implements Selector.
func (s *ForwardSelector) Supports(ml.Task) bool { return true }

// Select implements Selector.
func (s *ForwardSelector) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	maxF := s.MaxFeatures
	if maxF <= 0 {
		maxF = minInt(ds.D, 64)
	}
	maxC := s.MaxCandidates
	if maxC == 0 {
		maxC = 40
	}
	scorer := newSubsetScorer(ds, est, seed)
	rng := newRNG(seed + 1)
	selected := []int{}
	inSet := make([]bool, ds.D)
	current := math.Inf(-1)
	for len(selected) < maxF {
		remaining := make([]int, 0, ds.D)
		for j := 0; j < ds.D; j++ {
			if !inSet[j] {
				remaining = append(remaining, j)
			}
		}
		if len(remaining) == 0 {
			break
		}
		if maxC > 0 && len(remaining) > maxC {
			rng.Shuffle(len(remaining), func(a, b int) {
				remaining[a], remaining[b] = remaining[b], remaining[a]
			})
			remaining = remaining[:maxC]
		}
		bestJ, bestScore := -1, current
		for _, j := range remaining {
			cand := append(append([]int{}, selected...), j)
			if sc := scorer.ScoreAt(cand); sc > bestScore {
				bestJ, bestScore = j, sc
			}
		}
		if bestJ < 0 {
			break
		}
		selected = append(selected, bestJ)
		inSet[bestJ] = true
		current = bestScore
	}
	return selected, nil
}

// BackwardSelector starts from all features and greedily removes the feature
// whose removal most improves (or least degrades, above tolerance) the
// holdout score, stopping when no removal improves it.
type BackwardSelector struct {
	// MaxCandidates caps removal candidates evaluated per round (random
	// subsample; default 30; <= 0 means all).
	MaxCandidates int
	// MinFeatures stops elimination at this subset size (default 2).
	MinFeatures int
	// MaxRounds bounds elimination rounds (0 = unlimited). True backward
	// elimination is O(d²) model fits — the paper reports it as by far the
	// slowest method — so harnesses set a budget.
	MaxRounds int
}

// Name implements Selector.
func (s *BackwardSelector) Name() string { return "backward selection" }

// Supports implements Selector.
func (s *BackwardSelector) Supports(ml.Task) bool { return true }

// Select implements Selector.
func (s *BackwardSelector) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	minF := s.MinFeatures
	if minF <= 0 {
		minF = 2
	}
	maxC := s.MaxCandidates
	if maxC == 0 {
		maxC = 30
	}
	scorer := newSubsetScorer(ds, est, seed)
	rng := newRNG(seed + 2)
	selected := make([]int, ds.D)
	for i := range selected {
		selected[i] = i
	}
	current := scorer.ScoreAt(selected)
	for round := 0; len(selected) > minF; round++ {
		if s.MaxRounds > 0 && round >= s.MaxRounds {
			break
		}
		cands := make([]int, len(selected))
		for i := range cands {
			cands[i] = i // positions within selected
		}
		if maxC > 0 && len(cands) > maxC {
			rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
			cands = cands[:maxC]
		}
		bestPos, bestScore := -1, current
		for _, pos := range cands {
			trial := make([]int, 0, len(selected)-1)
			trial = append(trial, selected[:pos]...)
			trial = append(trial, selected[pos+1:]...)
			if sc := scorer.ScoreAt(trial); sc >= bestScore {
				bestPos, bestScore = pos, sc
			}
		}
		if bestPos < 0 {
			break
		}
		selected = append(selected[:bestPos], selected[bestPos+1:]...)
		current = bestScore
	}
	return selected, nil
}

// RFESelector is recursive feature elimination with a random-forest ranker:
// repeatedly drop the lowest-importance fraction, tracking the best holdout
// subset.
type RFESelector struct {
	// DropFrac is the fraction removed per round (default 0.2).
	DropFrac float64
	// MinFeatures stops elimination at this size (default 2).
	MinFeatures int
	// Ranker overrides the per-round ranker (default ForestRanker).
	Ranker Ranker
}

// Name implements Selector.
func (s *RFESelector) Name() string { return "rfe" }

// Supports implements Selector.
func (s *RFESelector) Supports(ml.Task) bool { return true }

// Select implements Selector.
func (s *RFESelector) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	drop := s.DropFrac
	if drop <= 0 || drop >= 1 {
		drop = 0.2
	}
	minF := s.MinFeatures
	if minF <= 0 {
		minF = 2
	}
	ranker := s.Ranker
	if ranker == nil {
		ranker = &ForestRanker{}
	}
	scorer := newSubsetScorer(ds, est, seed)
	selected := make([]int, ds.D)
	for i := range selected {
		selected[i] = i
	}
	best := append([]int{}, selected...)
	bestScore := scorer.ScoreAt(selected)
	round := 0
	for len(selected) > minF {
		round++
		sub := ds.View(selected)
		scores, err := ranker.Rank(sub, seed+int64(round))
		if err != nil {
			return nil, fmt.Errorf("featsel: rfe round %d: %w", round, err)
		}
		order := Order(scores) // descending within sub-index space
		keep := len(selected) - maxInt(1, int(float64(len(selected))*drop))
		if keep < minF {
			keep = minF
		}
		next := make([]int, keep)
		for i := 0; i < keep; i++ {
			next[i] = selected[order[i]]
		}
		selected = next
		if sc := scorer.ScoreAt(selected); sc > bestScore {
			bestScore = sc
			best = append(best[:0], selected...)
		}
	}
	return best, nil
}

// minInt returns the smaller of a and b.
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// maxInt returns the larger of a and b.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

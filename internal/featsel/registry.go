package featsel

import (
	"fmt"
	"strings"
)

// Method identifies a feature-selection method by the paper's name.
type Method string

// The feature-selection methods of the paper's noise-filter comparison
// (Table 6 / Figure 6), which TestClaimRIFSFiltersNoise holds.
const (
	MethodRIFS      Method = "RIFS"
	MethodForest    Method = "random forest"
	MethodFTest     Method = "f-test"
	MethodMutual    Method = "mutual info"
	MethodLinearSVC Method = "linear svc"
	MethodRelief    Method = "relief"
	MethodAll       Method = "all features"
)

// AllMethods lists every method in the paper's table order.
func AllMethods() []Method {
	return []Method{
		MethodRIFS, MethodForest, MethodFTest, MethodMutual,
		MethodLinearSVC, MethodRelief, MethodAll,
	}
}

// MethodNames is AllMethods as one comma-separated list, for help and error
// text.
func MethodNames() string {
	names := make([]string, 0, len(AllMethods()))
	for _, m := range AllMethods() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

// New constructs the named selector with paper-default parameters.
func New(m Method) (Selector, error) {
	switch m {
	case MethodRIFS:
		return &RIFS{}, nil
	case MethodForest:
		return &RankingSelector{Ranker: &ForestRanker{}}, nil
	case MethodFTest:
		return &RankingSelector{Ranker: &FTestRanker{}}, nil
	case MethodMutual:
		return &RankingSelector{Ranker: &MutualInfoRanker{}}, nil
	case MethodLinearSVC:
		return &RankingSelector{Ranker: &LinearSVCRanker{}}, nil
	case MethodRelief:
		return &RankingSelector{Ranker: &ReliefRanker{}}, nil
	case MethodAll:
		return AllFeatures{}, nil
	default:
		return nil, fmt.Errorf("featsel: unknown method %q (valid: %s)", m, MethodNames())
	}
}

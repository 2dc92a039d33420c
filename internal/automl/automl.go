// Package automl holds ARDA's default estimator, the paper's "lightly
// auto-optimized random forest": it scores feature subsets during selection
// and gives the final estimate. The AutoML systems the paper compares
// against (Azure AutoML, Alpine Meadow) have no counterpart here.
package automl

import (
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/ml"
)

// DefaultForestConfig is the forest configuration behind DefaultEstimator,
// exposed so a caller can fit the same forest directly, as the benchmark's
// forest-fit probe does.
func DefaultForestConfig(seed int64) ml.ForestConfig {
	return ml.ForestConfig{
		NTrees:   60,
		MaxDepth: 12,
		Seed:     seed,
		Parallel: true,
	}
}

// DefaultEstimator is the paper's "lightly auto-optimized random forest"
// default estimator, used by ARDA for feature-selection scoring and the
// final estimate.
func DefaultEstimator(seed int64) eval.Fitter {
	cfg := DefaultForestConfig(seed)
	return func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, cfg)
	}
}

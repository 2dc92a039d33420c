// Package automl is ARDA's stand-in for the commercial/academic AutoML
// baselines the paper compares against (Azure AutoML, Alpine Meadow): a
// time-budgeted random search over model families and hyperparameters,
// scored on a stratified holdout split. It plays the same role as in the
// paper — a strong augmentation-blind estimator given a single table.
package automl

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/ml"
)

// Config bounds the search.
type Config struct {
	// Budget is the wall-clock budget (default 10s).
	Budget time.Duration
	// MaxTrials caps the number of candidate pipelines (default 64).
	MaxTrials int
	// Seed drives candidate sampling.
	Seed int64
}

// Result reports the winning pipeline.
type Result struct {
	// Fit retrains the winning pipeline on any dataset.
	Fit eval.Fitter
	// Model is the winning pipeline fitted on the full input.
	Model ml.Model
	// Score is the winner's holdout score during search.
	Score float64
	// Description names the winning pipeline and hyperparameters.
	Description string
	// Trials is the number of candidates evaluated.
	Trials int
}

// candidate is one sampled pipeline.
type candidate struct {
	desc string
	fit  eval.Fitter
}

// Search runs budgeted random search and returns the best pipeline found.
func Search(ds *ml.Dataset, cfg Config) *Result {
	if cfg.Budget <= 0 {
		cfg.Budget = 10 * time.Second
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	split := eval.TrainTestSplit(ds, 0.25, cfg.Seed)
	deadline := time.Now().Add(cfg.Budget)

	res := &Result{Score: -1}
	for trial := 0; trial < cfg.MaxTrials && time.Now().Before(deadline); trial++ {
		c := sample(ds.Task, rng, cfg.Seed+int64(trial))
		score := eval.HoldoutScore(ds, split, c.fit)
		res.Trials++
		if score > res.Score {
			res.Score = score
			res.Fit = c.fit
			res.Description = c.desc
		}
	}
	if res.Fit == nil {
		// Degenerate budget: fall back to a default forest.
		res.Fit = DefaultEstimator(cfg.Seed)
		res.Description = "random forest (fallback)"
	}
	res.Model = res.Fit(ds)
	return res
}

// sample draws one pipeline from the task's search space.
func sample(task ml.Task, rng *rand.Rand, seed int64) candidate {
	if task == ml.Classification {
		switch rng.Intn(5) {
		case 0:
			nt := 40 + rng.Intn(4)*40
			depth := 6 + rng.Intn(3)*4
			return candidate{
				desc: fmt.Sprintf("random forest (trees=%d depth=%d)", nt, depth),
				fit: func(d *ml.Dataset) ml.Model {
					return ml.FitForest(d, ml.ForestConfig{NTrees: nt, MaxDepth: depth, Seed: seed, Parallel: true})
				},
			}
		case 1:
			l2 := []float64{1e-4, 1e-3, 1e-2}[rng.Intn(3)]
			return candidate{
				desc: fmt.Sprintf("logistic regression (l2=%g)", l2),
				fit: func(d *ml.Dataset) ml.Model {
					return ml.FitLogistic(d, ml.LogisticConfig{L2: l2})
				},
			}
		case 2:
			lam := []float64{1e-4, 1e-3, 1e-2}[rng.Intn(3)]
			return candidate{
				desc: fmt.Sprintf("linear svm (lambda=%g)", lam),
				fit: func(d *ml.Dataset) ml.Model {
					return ml.FitLinearSVM(d, ml.SVMConfig{Lambda: lam, Seed: seed})
				},
			}
		case 3:
			k := []int{3, 5, 9, 15}[rng.Intn(4)]
			return candidate{
				desc: fmt.Sprintf("knn (k=%d)", k),
				fit:  func(d *ml.Dataset) ml.Model { return ml.FitKNN(d, k) },
			}
		default:
			hidden := []int{16, 32, 64}[rng.Intn(3)]
			return candidate{
				desc: fmt.Sprintf("mlp (hidden=%d)", hidden),
				fit: func(d *ml.Dataset) ml.Model {
					return ml.FitMLP(d, ml.MLPConfig{Hidden: []int{hidden}, Epochs: 40, Seed: seed})
				},
			}
		}
	}
	switch rng.Intn(5) {
	case 0:
		nt := 40 + rng.Intn(4)*40
		depth := 6 + rng.Intn(3)*4
		return candidate{
			desc: fmt.Sprintf("random forest (trees=%d depth=%d)", nt, depth),
			fit: func(d *ml.Dataset) ml.Model {
				return ml.FitForest(d, ml.ForestConfig{NTrees: nt, MaxDepth: depth, Seed: seed, Parallel: true})
			},
		}
	case 1:
		lam := []float64{1e-3, 1e-2, 1e-1, 1}[rng.Intn(4)]
		return candidate{
			desc: fmt.Sprintf("ridge (lambda=%g)", lam),
			fit: func(d *ml.Dataset) ml.Model {
				m, err := ml.FitRidge(d, lam)
				if err != nil {
					return ml.FitForest(d, ml.ForestConfig{NTrees: 20, MaxDepth: 8, Seed: seed})
				}
				return m
			},
		}
	case 2:
		lam := []float64{1e-3, 1e-2, 1e-1}[rng.Intn(3)]
		return candidate{
			desc: fmt.Sprintf("lasso (lambda=%g)", lam),
			fit: func(d *ml.Dataset) ml.Model {
				return ml.FitLasso(d, ml.LassoConfig{Lambda: lam})
			},
		}
	case 3:
		k := []int{3, 5, 9, 15}[rng.Intn(4)]
		return candidate{
			desc: fmt.Sprintf("knn (k=%d)", k),
			fit:  func(d *ml.Dataset) ml.Model { return ml.FitKNN(d, k) },
		}
	default:
		hidden := []int{16, 32, 64}[rng.Intn(3)]
		return candidate{
			desc: fmt.Sprintf("mlp (hidden=%d)", hidden),
			fit: func(d *ml.Dataset) ml.Model {
				return ml.FitMLP(d, ml.MLPConfig{Hidden: []int{hidden}, Epochs: 40, Seed: seed})
			},
		}
	}
}

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

// BestOfForestAndSVM mirrors the paper's final-estimate protocol for
// classification: train both a random forest and an RBF-kernel SVM and keep
// whichever scores better on a holdout split. For regression it returns the
// forest.
func BestOfForestAndSVM(ds *ml.Dataset, seed int64) (ml.Model, string) {
	forestFit := DefaultEstimator(seed)
	if ds.Task != ml.Classification || ds.N > 1500 {
		return forestFit(ds), "random forest"
	}
	split := eval.TrainTestSplit(ds, 0.25, seed)
	svmFit := func(d *ml.Dataset) ml.Model {
		return ml.FitRBFSVM(d, ml.RBFSVMConfig{Seed: seed})
	}
	fScore := eval.HoldoutScore(ds, split, forestFit)
	sScore := eval.HoldoutScore(ds, split, svmFit)
	if sScore > fScore {
		return svmFit(ds), "svm-rbf"
	}
	return forestFit(ds), "random forest"
}

// Package experiments reproduces every table and figure in the ARDA paper's
// evaluation (§7) on the synthetic corpora of internal/synth: the headline
// augmentation results (Figure 3, Table 1, Figure 4), coreset-construction
// ablations (Tables 2–3), soft-join ablations (Figure 5), Tuple-Ratio
// prefiltering (Table 4), join-plan grouping (Table 5), and the
// noise-filtering micro benchmarks (Figure 6, Table 6). Each experiment
// returns structured rows plus a rendered text table whose layout mirrors
// the paper's.
package experiments

import (
	"time"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/synth"
)

// Scale bundles the knobs that trade experiment fidelity against runtime.
type Scale struct {
	// Corpus multiplies synthetic corpus row counts.
	Corpus float64
	// CoresetSize is the pipeline coreset size.
	CoresetSize int
	// RIFSK is the number of RIFS injection repetitions.
	RIFSK int
	// Trees is the ranking-forest size; the estimator uses 2×Trees.
	Trees int
	// AutoMLBudget and AutoMLTrials bound the AutoML baseline search.
	AutoMLBudget time.Duration
	AutoMLTrials int
	// ForwardMaxFeatures / ForwardCandidates / BackwardCandidates bound the
	// greedy wrapper methods.
	ForwardMaxFeatures int
	ForwardCandidates  int
	BackwardCandidates int
	// NoiseFactor is the micro-benchmark noise multiplier (paper: 10).
	NoiseFactor int
}

// Quick is the reduced scale used by `go test -bench` targets.
var Quick = Scale{
	Corpus:             0.12,
	CoresetSize:        160,
	RIFSK:              4,
	Trees:              20,
	AutoMLBudget:       2 * time.Second,
	AutoMLTrials:       8,
	ForwardMaxFeatures: 16,
	ForwardCandidates:  20,
	BackwardCandidates: 8,
	NoiseFactor:        4,
}

// Full is the scale used by cmd/ardabench to regenerate EXPERIMENTS.md.
var Full = Scale{
	Corpus:             0.5,
	CoresetSize:        320,
	RIFSK:              10,
	Trees:              40,
	AutoMLBudget:       15 * time.Second,
	AutoMLTrials:       32,
	ForwardMaxFeatures: 32,
	ForwardCandidates:  50,
	BackwardCandidates: 15,
	NoiseFactor:        10,
}

// Selector constructs the named method sized for this scale.
func (s Scale) Selector(m featsel.Method) (featsel.Selector, error) {
	switch m {
	case featsel.MethodRIFS:
		return &featsel.RIFS{Config: featsel.RIFSConfig{
			K:      s.RIFSK,
			Forest: featsel.ForestRanker{NTrees: s.Trees, MaxDepth: 10},
		}}, nil
	case featsel.MethodForest:
		return &featsel.RankingSelector{Ranker: &featsel.ForestRanker{NTrees: s.Trees * 2, MaxDepth: 12}}, nil
	case featsel.MethodForward:
		return &featsel.ForwardSelector{
			MaxFeatures:   s.ForwardMaxFeatures,
			MaxCandidates: s.ForwardCandidates,
		}, nil
	case featsel.MethodBackward:
		return &featsel.BackwardSelector{
			MaxCandidates: s.BackwardCandidates,
			MaxRounds:     3 * s.BackwardCandidates,
		}, nil
	default:
		return featsel.New(m)
	}
}

// Estimator is the "lightly auto-optimized random forest" used to score
// selections and final augmentations.
func (s Scale) Estimator(seed int64) eval.Fitter {
	cfg := ml.ForestConfig{
		NTrees:   s.Trees * 2,
		MaxDepth: 12,
		Seed:     seed,
		Parallel: true,
	}
	return func(d *ml.Dataset) ml.Model {
		return ml.FitForest(d, cfg)
	}
}

// CorpusSpec names a generator for one of the paper's five real-world-style
// datasets.
type CorpusSpec struct {
	Name string
	Gen  func(synth.Config) *synth.Corpus
}

// RealWorld lists the five corpora in the paper's order.
func RealWorld() []CorpusSpec {
	return []CorpusSpec{
		{"taxi", synth.Taxi},
		{"pickup", synth.Pickup},
		{"poverty", synth.Poverty},
		{"school-s", synth.SchoolS},
		{"school-l", synth.SchoolL},
	}
}

// RegressionCorpora lists the regression subset (Tables 3, Figure 5).
func RegressionCorpora() []CorpusSpec {
	return []CorpusSpec{
		{"taxi", synth.Taxi},
		{"pickup", synth.Pickup},
		{"poverty", synth.Poverty},
	}
}

// Generate builds the named corpus at this scale.
func (s Scale) Generate(spec CorpusSpec, seed int64) *synth.Corpus {
	return spec.Gen(synth.Config{Seed: seed, Scale: s.Corpus})
}

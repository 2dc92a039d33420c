package experiments

import (
	"fmt"
	"time"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/synth"
)

// AblationRow reports one RIFS configuration on the noise-injected Kraken
// micro benchmark: holdout accuracy, subset size, and what fraction of the
// kept features are real (not injected corpus noise).
type AblationRow struct {
	Knob, Setting string
	Accuracy      float64
	Selected      int
	OriginalFrac  float64
	Time          time.Duration
}

// AblationResult holds the RIFS design-choice ablation.
type AblationResult struct {
	Rows []AblationRow
}

// RIFSAblation sweeps the design choices DESIGN.md calls out: the ranking
// ensemble weight ν (forest-only — the default — vs sparse-regression-only
// vs the paper's ensemble), the injection strategy (moment-matched vs simple
// distributions), the repetition count K, and the injection fraction η. The
// ν rows are the exact endpoints, so each skips the other ranking half as
// the selector does; the injection, K and η rows vary the default and so
// rank with the forest alone. Each variant runs on Kraken with injected
// noise, where ground truth lets us score noise filtering directly.
func RIFSAblation(s Scale, seed int64) (*AblationResult, error) {
	base := synth.Kraken(synth.Config{Seed: seed})
	aug, mask := synth.InjectNoise(base, s.NoiseFactor, seed+1)
	split := eval.TrainTestSplit(aug, 0.25, seed)
	est := s.Estimator(seed)

	def := featsel.RIFSConfig{K: s.RIFSK, Forest: featsel.ForestRanker{NTrees: s.Trees, MaxDepth: 10}}
	variants := []struct {
		knob, setting string
		cfg           featsel.RIFSConfig
	}{
		{"ensemble", "forest only (nu=1, default)", def},
		{"ensemble", "sparse only (nu=0)", withNu(def, 0)},
		{"ensemble", "ensemble (nu=0.5)", withNu(def, 0.5)},
		{"injection", "moment-matched", def},
		{"injection", "simple distributions", withInjection(def, featsel.SimpleDistributions)},
		{"repetitions", "K=2", withK(def, 2)},
		{"repetitions", fmt.Sprintf("K=%d", s.RIFSK), def},
		{"repetitions", fmt.Sprintf("K=%d", 2*s.RIFSK), withK(def, 2*s.RIFSK)},
		{"injection fraction", "eta=0.1", withEta(def, 0.1)},
		{"injection fraction", "eta=0.2", withEta(def, 0.2)},
		{"injection fraction", "eta=0.4", withEta(def, 0.4)},
	}

	out := &AblationResult{}
	for _, v := range variants {
		sel := &featsel.RIFS{Config: v.cfg}
		row, err := runMicroSelector("kraken", v.setting, aug, mask, split, sel, est, seed)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if row.Selected > 0 {
			frac = float64(row.OriginalSelected) / float64(row.Selected)
		}
		out.Rows = append(out.Rows, AblationRow{
			Knob:         v.knob,
			Setting:      v.setting,
			Accuracy:     row.Accuracy,
			Selected:     row.Selected,
			OriginalFrac: frac,
			Time:         row.Time,
		})
	}
	return out, nil
}

func withNu(c featsel.RIFSConfig, nu float64) featsel.RIFSConfig {
	c.Nu, c.NuSet = nu, true
	return c
}

func withK(c featsel.RIFSConfig, k int) featsel.RIFSConfig {
	c.K = k
	return c
}

func withEta(c featsel.RIFSConfig, eta float64) featsel.RIFSConfig {
	c.Eta = eta
	return c
}

func withInjection(c featsel.RIFSConfig, kind featsel.InjectionKind) featsel.RIFSConfig {
	c.Injection = kind
	return c
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Knob, row.Setting, fmtAcc(row.Accuracy),
			fmtInt(row.Selected), fmt.Sprintf("%.2f", row.OriginalFrac), fmtDur(row.Time),
		})
	}
	return RenderTable(
		"RIFS ablation on Kraken + injected noise (design choices of §6)",
		[]string{"knob", "setting", "accuracy", "selected", "orig frac", "time"},
		rows,
	)
}

package experiments

import (
	"testing"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/stats"
	"github.com/arda-ml/arda/internal/synth"
)

// TestClaimForestOnlyRanking is the ν decision as a claim: on noise-injected
// Kraken at Quick scale, over six fixed seeds, RIFS at its default (ν = 1,
// the forest ranking alone) keeps mostly real features — its mean real-feature
// fraction is far above the 1/(1+NoiseFactor) a random pick would get — and
// neither that fraction nor its holdout accuracy is below the paper's ν = 0.5
// ensemble's. The runs are pure functions of the seeds, so the numbers repeat
// exactly.
func TestClaimForestOnlyRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve RIFS runs")
	}
	s := Quick
	settings := []struct {
		name string
		nu   float64
	}{{"default", 0}, {"ensemble", 0.5}}
	acc := make([][]float64, len(settings))
	frac := make([][]float64, len(settings))
	for seed := int64(1); seed <= 6; seed++ {
		aug, mask := synth.InjectNoise(synth.Kraken(synth.Config{Seed: seed}), s.NoiseFactor, seed+1)
		split := eval.TrainTestSplit(aug, 0.25, seed)
		for i, st := range settings {
			sel := &featsel.RIFS{Config: featsel.RIFSConfig{
				K: s.RIFSK, Nu: st.nu, Forest: featsel.ForestRanker{NTrees: s.Trees, MaxDepth: 10},
			}}
			row, err := runMicroSelector("kraken", st.name, aug, mask, split, sel, s.Estimator(seed), seed)
			if err != nil {
				t.Fatal(err)
			}
			acc[i] = append(acc[i], row.Accuracy)
			frac[i] = append(frac[i], float64(row.OriginalSelected)/float64(row.Selected))
		}
	}
	for i, st := range settings {
		t.Logf("%s: accuracy %.4f ± %.4f, real fraction %.4f ± %.4f over %d seeds", st.name,
			stats.Mean(acc[i]), stats.StdDev(acc[i]), stats.Mean(frac[i]), stats.StdDev(frac[i]), len(acc[i]))
	}
	baseRate := 1 / float64(1+s.NoiseFactor)
	if f := stats.Mean(frac[0]); f < 3*baseRate {
		t.Errorf("default real fraction %.4f is not far above the %.2f base rate", f, baseRate)
	}
	if d, e := stats.Mean(frac[0]), stats.Mean(frac[1]); d < e {
		t.Errorf("default real fraction %.4f is below the ensemble's %.4f", d, e)
	}
	if d, e := stats.Mean(acc[0]), stats.Mean(acc[1]); d < e {
		t.Errorf("default accuracy %.4f is below the ensemble's %.4f", d, e)
	}
}

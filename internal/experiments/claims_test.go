// Package experiments holds the paper's evaluation (§7) as claim tests on
// the synthetic corpora of internal/synth: each TestClaim* asserts one
// qualitative result that holds here and logs the numbers behind it.
package experiments

import (
	"sort"
	"testing"

	"github.com/arda-ml/arda/internal/automl"
	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/stats"
	"github.com/arda-ml/arda/internal/synth"
)

// corpora are the paper's five real-world-style datasets, in its order.
var corpora = []struct {
	name string
	gen  func(synth.Config) *synth.Corpus
}{
	{"taxi", synth.Taxi},
	{"pickup", synth.Pickup},
	{"poverty", synth.Poverty},
	{"school-s", synth.SchoolS},
	{"school-l", synth.SchoolL},
}

// TestClaimAugmentBeatsBaseAndAllTables is Figure 3: ARDA's augmentation
// scores above the base table on every corpus and seed, and, where noise
// tables outnumber the five planted ones many times over (poverty 8:1,
// school-l 70:1), selection scores at least as well as joining every table.
// On taxi, pickup and school-s all-tables is logged only: there it can edge
// out ARDA.
//
// It is also Tables 2–3 (§3.1, coreset strategies): on the regression
// corpora (taxi, pickup, poverty) a leverage-score coreset scores at least
// as well as the uniform one on every seed and strictly better on at least
// five of the nine pairs. On the classification corpora it is logged only:
// there it scores below uniform on most seeds. It does not show that the
// leverage weights make the gain: another uniform draw passes it too
// (EXPERIMENTS.md, "Tables 2–3").
func TestClaimAugmentBeatsBaseAndAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("forty-five pipeline runs")
	}
	noiseDominated := map[string]bool{"poverty": true, "school-l": true}
	leverageAbove := 0
	for _, spec := range corpora {
		for seed := int64(1); seed <= 3; seed++ {
			c := spec.gen(synth.Config{Seed: seed, Scale: 0.3})
			cands := discovery.Discover(c.Base, c.Repo, c.Target, discovery.Options{})
			arda, err := core.Augment(c.Base, cands, core.Options{Target: c.Target, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			all, err := core.Augment(c.Base, cands, core.Options{Target: c.Target, Seed: seed, Selector: featsel.AllFeatures{}})
			if err != nil {
				t.Fatal(err)
			}
			lev, err := core.Augment(c.Base, cands, core.Options{Target: c.Target, Seed: seed, CoresetStrategy: coreset.Leverage})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s seed %d: base %.4f, ARDA %.4f (%d tables), all-tables %.4f",
				spec.name, seed, arda.BaseScore, arda.FinalScore, len(arda.KeptTables), all.FinalScore)
			t.Logf("%s seed %d: leverage coreset %.4f (%d tables), uniform %.4f",
				spec.name, seed, lev.FinalScore, len(lev.KeptTables), arda.FinalScore)
			if arda.FinalScore <= arda.BaseScore {
				t.Errorf("%s seed %d: ARDA %.4f does not beat the base table's %.4f",
					spec.name, seed, arda.FinalScore, arda.BaseScore)
			}
			if noiseDominated[spec.name] && arda.FinalScore < all.FinalScore {
				t.Errorf("%s seed %d: ARDA %.4f is below all-tables' %.4f",
					spec.name, seed, arda.FinalScore, all.FinalScore)
			}
			if c.Task != ml.Regression {
				continue
			}
			if lev.FinalScore < arda.FinalScore {
				t.Errorf("%s seed %d: leverage coreset %.4f is below uniform's %.4f",
					spec.name, seed, lev.FinalScore, arda.FinalScore)
			}
			if lev.FinalScore > arda.FinalScore {
				leverageAbove++
			}
		}
	}
	if leverageAbove < 5 {
		t.Errorf("leverage coreset scored above uniform on %d of the nine regression pairs, want at least 5", leverageAbove)
	}
}

// TestClaimDigitsRecovery is Figure 6 on Digits: with ten noise columns
// injected per real one, RIFS at its defaults keeps no injected column and
// (nearly) every original.
func TestClaimDigitsRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("four RIFS runs")
	}
	for seed := int64(1); seed <= 4; seed++ {
		base := synth.Digits(synth.Config{Seed: seed})
		aug, mask := synth.InjectNoise(base, 10, seed+1)
		acc, kept, orig := selectOnNoise(t, aug, mask, &featsel.RIFS{}, automl.DefaultEstimator(seed), seed)
		t.Logf("seed %d: kept %d of %d columns, %d of %d originals, accuracy %.4f",
			seed, kept, aug.D, orig, base.D, acc)
		if kept != orig {
			t.Errorf("seed %d: %d injected columns kept", seed, kept-orig)
		}
		if orig < base.D-1 {
			t.Errorf("seed %d: only %d of %d originals kept", seed, orig, base.D)
		}
	}
}

// TestClaimRIFSFiltersNoise is Table 6 / Figure 6 on Kraken: with ten noise
// columns injected per real one (a random pick keeps 1/11 real columns),
// each registered selector picks columns on the training side and the
// default estimator is scored on them, seeds 1–3. RIFS keeps at least half
// real columns, scores above all features, at least as well as f-test,
// linear svc and relief, and keeps at least as real a set as mutual info and
// relief. Logged only, because they do not hold at every seed: random forest
// scores above RIFS at seed 2 and keeps a more real set at seed 3, mutual
// info scores above RIFS at seed 2, and f-test and linear svc keep more real
// (and much smaller) sets at seed 3.
func TestClaimRIFSFiltersNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-one selector runs")
	}
	for seed := int64(1); seed <= 3; seed++ {
		aug, mask := synth.InjectNoise(synth.Kraken(synth.Config{Seed: seed}), 10, seed+1)
		est := automl.DefaultEstimator(seed)
		acc := map[featsel.Method]float64{}
		frac := map[featsel.Method]float64{}
		for _, m := range featsel.AllMethods() {
			sel, err := featsel.New(m)
			if err != nil {
				t.Fatal(err)
			}
			a, kept, orig := selectOnNoise(t, aug, mask, sel, est, seed)
			acc[m], frac[m] = a, float64(orig)/float64(kept)
			t.Logf("seed %d %-13s accuracy %.4f, kept %3d of %d columns, %2d originals",
				seed, m, a, kept, aug.D, orig)
		}
		rifs := featsel.MethodRIFS
		if frac[rifs] < 0.5 {
			t.Errorf("seed %d: RIFS real fraction %.4f is below 0.5", seed, frac[rifs])
		}
		if acc[rifs] <= acc[featsel.MethodAll] {
			t.Errorf("seed %d: RIFS accuracy %.4f does not beat all features' %.4f",
				seed, acc[rifs], acc[featsel.MethodAll])
		}
		for _, m := range []featsel.Method{featsel.MethodFTest, featsel.MethodLinearSVC, featsel.MethodRelief} {
			if acc[rifs] < acc[m] {
				t.Errorf("seed %d: RIFS accuracy %.4f is below %s's %.4f", seed, acc[rifs], m, acc[m])
			}
		}
		for _, m := range []featsel.Method{featsel.MethodMutual, featsel.MethodRelief} {
			if frac[rifs] < frac[m] {
				t.Errorf("seed %d: RIFS real fraction %.4f is below %s's %.4f", seed, frac[rifs], m, frac[m])
			}
		}
	}
}

// TestClaimTupleRatioKeepsPlantedTables is Table 4's "the TR rule loses
// little": with τ at the 75th percentile of the candidates' tuple ratios
// (the ground-truth-free stand-in for the paper's per-dataset tuning), the
// prefilter removes no planted table on taxi, poverty, school-s or
// school-l. Pickup is logged only: it loses one planted table at every
// seed, the paper's own pickup outlier.
func TestClaimTupleRatioKeepsPlantedTables(t *testing.T) {
	for _, spec := range corpora {
		for seed := int64(1); seed <= 3; seed++ {
			c := spec.gen(synth.Config{Seed: seed, Scale: 0.12})
			cands := discovery.Discover(c.Base, c.Repo, c.Target, discovery.Options{})
			rows := c.Base.NumRows()
			ratios := make([]float64, len(cands))
			for i, cand := range cands {
				ratios[i] = core.TupleRatio(rows, cand)
			}
			sort.Float64s(ratios)
			tau := ratios[len(ratios)*75/100]
			kept, removed := core.FilterTupleRatio(rows, cands, tau)
			survivors := map[string]bool{}
			for _, cand := range kept {
				survivors[cand.Table.Name()] = true
			}
			var lost []string
			for name := range c.RelevantTables {
				if !survivors[name] {
					lost = append(lost, name)
				}
			}
			sort.Strings(lost)
			t.Logf("%s seed %d: tau %.3f removed %d tables, lost %d of %d planted %v",
				spec.name, seed, tau, removed, len(lost), len(c.RelevantTables), lost)
			if len(lost) > 0 && spec.name != "pickup" {
				t.Errorf("%s seed %d: the TR rule lost planted tables %v", spec.name, seed, lost)
			}
		}
	}
}

// TestClaimForestOnlyRanking is the ν decision as a claim: on noise-injected
// Kraken (four noise columns per real one), over six fixed seeds, RIFS at
// its default (ν = 1, the forest ranking alone) keeps mostly real features —
// its mean real-feature fraction is far above the 1/(1+4) a random pick
// would get — and neither that fraction nor its holdout accuracy is below
// the paper's ν = 0.5 ensemble's. The runs are pure functions of the seeds,
// so the numbers repeat exactly.
func TestClaimForestOnlyRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve RIFS runs")
	}
	const noise = 4
	settings := []struct {
		name string
		nu   float64
	}{{"default", 0}, {"ensemble", 0.5}}
	acc := make([][]float64, len(settings))
	frac := make([][]float64, len(settings))
	for seed := int64(1); seed <= 6; seed++ {
		aug, mask := synth.InjectNoise(synth.Kraken(synth.Config{Seed: seed}), noise, seed+1)
		cfg := ml.ForestConfig{NTrees: 40, MaxDepth: 12, Seed: seed, Parallel: true}
		est := func(d *ml.Dataset) ml.Model { return ml.FitForest(d, cfg) }
		for i, st := range settings {
			sel := &featsel.RIFS{Config: featsel.RIFSConfig{
				K: 4, Nu: st.nu, Forest: featsel.ForestRanker{NTrees: 20, MaxDepth: 10},
			}}
			a, kept, orig := selectOnNoise(t, aug, mask, sel, est, seed)
			acc[i] = append(acc[i], a)
			frac[i] = append(frac[i], float64(orig)/float64(kept))
		}
	}
	for i, st := range settings {
		t.Logf("%s: accuracy %.4f ± %.4f, real fraction %.4f ± %.4f over %d seeds", st.name,
			stats.Mean(acc[i]), stats.StdDev(acc[i]), stats.Mean(frac[i]), stats.StdDev(frac[i]), len(acc[i]))
	}
	baseRate := 1 / float64(1+noise)
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

// selectOnNoise runs sel on the training side of a noise-injected dataset
// (mask marks the original columns), refits est on the kept columns and
// returns its holdout accuracy, the number of columns kept and how many of
// them are original. An empty selection fails the test: it has no accuracy
// and no real fraction to credit.
func selectOnNoise(t *testing.T, aug *ml.Dataset, mask []bool, sel featsel.Selector, est eval.Fitter, seed int64) (acc float64, kept, orig int) {
	t.Helper()
	split := eval.TrainTestSplit(aug, 0.25, seed)
	train, test := aug.Subset(split.Train), aug.Subset(split.Test)
	cols, err := sel.Select(train, est, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatalf("seed %d: %s selected no columns", seed, sel.Name())
	}
	testSel := test.SelectFeatures(cols)
	pred := ml.PredictAll(est(train.SelectFeatures(cols)), testSel)
	for _, j := range cols {
		if mask[j] {
			orig++
		}
	}
	return eval.Accuracy(pred, testSel.Y), len(cols), orig
}

package core

import (
	"fmt"
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/stats"
	"github.com/arda-ml/arda/internal/synth"
)

// The answer-quality gate: default-options runs over (corpus seed × pipeline
// seed) pairs of a synthetic corpus, scored against the planted tables. It is
// a pure function of the seeds, so every number below repeats exactly.

// answerQuality is what the gate measures over one corpus generator.
type answerQuality struct {
	// One entry per (corpus seed, pipeline seed) pair, corpus-major.
	precision, recall, gain []float64
	// stability is the mean, over corpus seeds, of the mean pairwise Jaccard
	// similarity of KeptTables across that corpus's pipeline seeds: 1 when
	// every pipeline seed gives the same answer.
	stability float64
	results   []*Result
}

func (q answerQuality) String() string {
	spread := func(xs []float64) string {
		return fmt.Sprintf("%.4f ± %.4f", stats.Mean(xs), stats.StdDev(xs))
	}
	return fmt.Sprintf("precision %s, recall %s, gain %s, stability %.4f over %d pairs",
		spread(q.precision), spread(q.recall), spread(q.gain), q.stability, len(q.results))
}

// jaccard is |a ∩ b| / |a ∪ b| of two name lists; two empty answers agree.
func jaccard(a, b []string) float64 {
	in := make(map[string]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	both := 0
	for _, x := range b {
		if in[x] {
			both++
		}
	}
	union := len(a) + len(b) - both
	if union == 0 {
		return 1
	}
	return float64(both) / float64(union)
}

// measureQuality runs the pipeline at default options on gen(corpus seed) for
// every pipeline seed.
func measureQuality(t *testing.T, gen func(synth.Config) *synth.Corpus, scale float64, corpusSeeds, pipelineSeeds []int64) answerQuality {
	t.Helper()
	var q answerQuality
	for _, cs := range corpusSeeds {
		corpus := gen(synth.Config{Seed: cs, Scale: scale})
		cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
		var answers [][]string
		for _, ps := range pipelineSeeds {
			res, err := Augment(corpus.Base, cands, Options{Target: corpus.Target, Seed: ps})
			if err != nil {
				t.Fatalf("%s corpus seed %d, pipeline seed %d: %v", corpus.Name, cs, ps, err)
			}
			hits := 0
			for _, name := range res.KeptTables {
				if corpus.RelevantTables[name] {
					hits++
				}
			}
			precision := 0.0
			if len(res.KeptTables) > 0 {
				precision = float64(hits) / float64(len(res.KeptTables))
			}
			q.precision = append(q.precision, precision)
			q.recall = append(q.recall, float64(hits)/float64(len(corpus.RelevantTables)))
			q.gain = append(q.gain, res.FinalScore-res.BaseScore)
			q.results = append(q.results, res)
			answers = append(answers, res.KeptTables)
		}
		sum, n := 0.0, 0
		for i := range answers {
			for j := i + 1; j < len(answers); j++ {
				sum += jaccard(answers[i], answers[j])
				n++
			}
		}
		q.stability += sum / float64(n) / float64(len(corpusSeeds))
	}
	return q
}

// TestQualitySchoolL holds the wide corpus — 350 tables, 1,050 candidate
// features against a 256-row coreset, five planted tables — to the answer the
// parent commit gave: the screen stage may not find fewer planted tables or a
// smaller score gain, and it has to be more precise and more stable, which is
// what it is for. The pairs are the benchmark's own (wide-repo is corpus seed
// 1, pipeline seeds 2–4) plus the next corpus seed, at the benchmark's scale:
// a smaller base table does not shrink the problem — the coreset stays at 256
// rows — it only makes the holdout score noisier. The witness is the planted
// co-predictor pair: tutoring hours (programs) and the volunteer index
// (community) carry their signal as a product, and a screen that ranks tables
// one at a time must still pass both on.
//
// What the gate does not say: over 24 pairs (corpus seeds 1–4 at scales 0.5
// and 1) the screen passed all five planted tables on 24 times, ranked 0–14
// of 350, yet mean recall was 0.867 against the parent's 0.892 — RIFS, on the
// one round it now runs, dropped a district-level table (community,
// district_funding) a little more often than its five rounds did. That is
// the selector's lottery (ROADMAP 1(b)–(c)), and this gate is what its fix
// will be held to.
func TestQualitySchoolL(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	// Recorded with this harness at 2a17cbb, the commit before the stage:
	// precision 0.1283 ± 0.0631, recall 0.8333 ± 0.0745, gain 0.2826 ± 0.0248,
	// stability 0.1450 over 6 pairs.
	const (
		parentPrecision = 0.12830240547755745
		parentRecall    = 0.8333333333333334
		parentGain      = 0.28259143807148795
		parentStability = 0.14495642566528044
	)
	q := measureQuality(t, synth.SchoolL, 1, []int64{1, 2}, []int64{2, 3, 4})
	t.Logf("school-l: %s", q)
	if got := stats.Mean(q.recall); got < parentRecall {
		t.Errorf("mean table recall %.4f, parent had %.4f", got, parentRecall)
	}
	if got := stats.Mean(q.gain); got < parentGain {
		t.Errorf("mean score gain %.4f, parent had %.4f", got, parentGain)
	}
	if got := stats.Mean(q.precision); got <= parentPrecision {
		t.Errorf("mean table precision %.4f is not above the parent's %.4f", got, parentPrecision)
	}
	if q.stability <= parentStability {
		t.Errorf("answer stability %.4f is not above the parent's %.4f", q.stability, parentStability)
	}
	for i, res := range q.results {
		survived := map[string]bool{}
		for _, s := range res.Screened {
			survived[s.Name] = s.Kept
		}
		if len(res.Screened) == 0 || !survived["programs"] || !survived["community"] {
			t.Errorf("pair %d: co-predictors did not both survive the screen (programs %v, community %v, %d tables scored)",
				i, survived["programs"], survived["community"], len(res.Screened))
		}
	}
}

// TestQualityPoverty is the other half of the gate: a corpus whose 42 tables
// fit its coreset — a regression task — must pass through the screen stage
// untouched (no candidate screened out, no verdicts recorded), and its answer
// is pinned: base score, final score and table digest per pair, and the mean
// table precision, recall and answer stability.
func TestQualityPoverty(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	// Base score, final score and table digest per (corpus seed 1, pipeline
	// seed) pair, recorded when trees started growing over a bootstrap's
	// distinct rows: their regression sums round differently, which moved
	// every score and two digests — from (0.10228123084553165,
	// 0.8467506233449846, 0x8fe97953008e1c0a), (0.09899840619059108,
	// 0.8216310462074696, same digest) and (0.14394870148082972,
	// 0.8283535196233383, 0x4548e00b00140276) at 2a17cbb — and the mean gain
	// from 0.7172 to 0.7181, but kept the same tables in every pair.
	recorded := []struct {
		base, final float64
		digest      uint64
	}{
		{0.10233709717360084, 0.8416606543335783, 0x5145106f0d07aac5},
		{0.09899940762977133, 0.8222686394736531, 0xa6d9c48f7c51edd5},
		{0.14394870148082928, 0.8356368042289377, 0x3765983d15e61e7c},
	}
	const (
		precision = 0.7083333333333334
		recall    = 1
		stability = 0.5032051282051282
	)
	q := measureQuality(t, synth.Poverty, 0.5, []int64{1}, []int64{2, 3, 4})
	t.Logf("poverty ×0.5: %s", q)
	for i, res := range q.results {
		if res.CandidatesScreened != 0 || res.Screened != nil {
			t.Errorf("pair %d: the screen dropped %d candidates of a corpus that fits", i, res.CandidatesScreened)
		}
		if p := recorded[i]; res.BaseScore != p.base || res.FinalScore != p.final || res.Table.Digest() != p.digest {
			t.Errorf("pair %d: base %v final %v digest %#x, recorded %v %v %#x",
				i, res.BaseScore, res.FinalScore, res.Table.Digest(), p.base, p.final, p.digest)
		}
	}
	if p, r := stats.Mean(q.precision), stats.Mean(q.recall); p != precision || r != recall || q.stability != stability {
		t.Errorf("precision %v recall %v stability %v, recorded %v %v %v", p, r, q.stability, precision, recall, stability)
	}
}

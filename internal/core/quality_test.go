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
// features against a 256-row coreset, five planted tables — to the answer
// RIFS is meant to give: keep what beats noise and little else. Over 12
// pairs, corpus seeds 1–4 (wide-repo is corpus seed 1) × the benchmark's
// pipeline seeds 2–4, at the benchmark's scale — a smaller base table does
// not shrink the problem, the coreset stays at 256 rows, it only makes the
// holdout score noisier — it asks for mean table precision ≥ 0.5 at mean
// recall ≥ 0.8, answer stability ≥ 0.6, and a mean score gain no smaller
// than the 0.2826 the commit before the screen stage had. The witness is the
// planted co-predictor pair: tutoring hours (programs) and the volunteer
// index (community) carry their signal as a product, and a screen that ranks
// tables one at a time must still pass both on.
//
// The forest-only ranking (ν = 1) gives precision 0.932, recall 0.883, gain
// 0.303 and stability 0.692 on these pairs, keeping 3–7 tables; the paper's
// ν = 0.5 ensemble gave 0.274, 0.883, 0.284 and 0.166, keeping 12–23 tables
// on wide-repo's seeds. What the gate does not say: the recall lost is
// RIFS's, not the screen's. The screen passes all five planted tables every
// time, and RIFS drops one or two of district_funding, community and
// demographics in 6 of the 12 pairs.
func TestQualitySchoolL(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	const (
		minPrecision = 0.5
		minRecall    = 0.8
		minStability = 0.6
		// The mean gain this harness measured at 2a17cbb, before the screen.
		minGain = 0.28259143807148795
	)
	q := measureQuality(t, synth.SchoolL, 1, []int64{1, 2, 3, 4}, []int64{2, 3, 4})
	t.Logf("school-l: %s", q)
	if got := stats.Mean(q.precision); got < minPrecision {
		t.Errorf("mean table precision %.4f is below %.4f", got, minPrecision)
	}
	if got := stats.Mean(q.recall); got < minRecall {
		t.Errorf("mean table recall %.4f is below %.4f", got, minRecall)
	}
	if q.stability < minStability {
		t.Errorf("answer stability %.4f is below %.4f", q.stability, minStability)
	}
	if got := stats.Mean(q.gain); got < minGain {
		t.Errorf("mean score gain %.4f is below %.4f", got, minGain)
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
	// seed) pair, last recorded when regression splits began to be scored
	// from sums over centred targets; CHANGES.md has the earlier values.
	recorded := []struct {
		base, final float64
		digest      uint64
	}{
		{0.10213206389379981, 0.8480435408646471, 0xc61cf2113159a815},
		{0.0991748938181981, 0.8382618188888142, 0x4548e00b00140276},
		{0.14388097799906663, 0.8276567538438907, 0x4548e00b00140276},
	}
	const (
		precision = 0.9444444444444445
		recall    = 1
		stability = 0.888888888888889
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

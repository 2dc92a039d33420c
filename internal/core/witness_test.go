package core

import (
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
)

// TestEndToEndWitness pins one default-options run per task — a regression
// corpus and a classification corpus whose base tables are mostly one-hot
// columns — to the scores and table digest recorded at commit 064769a. Every
// forest behind these numbers (RIFS rankings, the sweep, both evaluation
// forests) goes through the split kernel, so a kernel change that alters any
// tree, anywhere, at either worker count, moves them. Poverty's 42 tables fit
// its coreset, so the screen stage left its row as recorded; SchoolL's 350
// tables do not (1,050 features against 256 rows), and its row was recorded
// again when the stage landed (before: final 0.7160493827160493, digest
// 0x592dc08585da6138). Poverty's row was recorded again when trees started
// growing over a bootstrap's distinct rows weighted by multiplicity: a
// regression node's target sums add w·y once per row where they added y
// once per copy, so near-tied splits of the RIFS, sweep and evaluation
// forests fall differently (before: base 0.0032347885390474618, final
// 0.7224497459787897, digest 0x71d40fcb562d2a86). SchoolL's row stayed
// bit-equal: class counts add integer weights exactly.
func TestEndToEndWitness(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	cases := []struct {
		corpus      *synth.Corpus
		base, final float64
		digest      uint64
	}{
		{synth.Poverty(synth.Config{Seed: 61, Scale: 0.2}), 0.003234788539047573, 0.7508425020348946, 0x87835e96f6c999b7},
		{synth.SchoolL(synth.Config{Seed: 61, Scale: 0.2}), 0.41975308641975306, 0.6790123456790124, 0x234c0303df5f6643},
	}
	for _, c := range cases {
		cands := discovery.Discover(c.corpus.Base, c.corpus.Repo, c.corpus.Target, discovery.Options{})
		for _, workers := range []int{1, 8} {
			res, err := Augment(c.corpus.Base, cands, Options{Target: c.corpus.Target, Seed: 62, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.BaseScore != c.base || res.FinalScore != c.final || res.Table.Digest() != c.digest {
				t.Errorf("%s at %d workers: base %v final %v digest %#x, want %v %v %#x", c.corpus.Base.Name(), workers,
					res.BaseScore, res.FinalScore, res.Table.Digest(), c.base, c.final, c.digest)
			}
		}
	}
}

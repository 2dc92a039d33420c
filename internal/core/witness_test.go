package core

import (
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
)

// TestEndToEndWitness pins one default-options run per task — a regression
// corpus and a classification corpus whose base tables are mostly one-hot
// columns — to its scores and table digest. Every forest behind these numbers
// (RIFS rankings, the sweep, both evaluation forests) goes through the split
// kernel, so a kernel change that alters any tree, anywhere, at either worker
// count, moves them; so does a change to what RIFS keeps. Poverty's 42 tables
// fit its coreset; SchoolL's 350 do not (1,050 features against 256 rows), so
// its row also runs the screen stage. Poverty's row was last recorded when
// regression splits began to be scored from sums over centred targets,
// SchoolL's when RIFS began ranking with its forest alone (ν = 1);
// CHANGES.md has the earlier values.
func TestEndToEndWitness(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	cases := []struct {
		corpus      *synth.Corpus
		base, final float64
		digest      uint64
	}{
		{synth.Poverty(synth.Config{Seed: 61, Scale: 0.2}), 0.0034974086101675628, 0.7208175999088795, 0x88fe1b91205e4578},
		{synth.SchoolL(synth.Config{Seed: 61, Scale: 0.2}), 0.41975308641975306, 0.691358024691358, 0x3b72ef8cc1f78d6b},
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

package core

import (
	"context"
	"math"
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/synth"
)

// BenchmarkEvaluateTallBase times the evaluate stage alone on the benchmark's
// tall-base shape (Poverty ×8: 12,000 base rows, 42 tables, coreset 256):
// both encodings and the base and augmented holdout forests. One full
// Augment in setup supplies the augmented table, and every iteration must
// reproduce its two scores bit for bit. `make profile-evaluate` profiles it.
func BenchmarkEvaluateTallBase(b *testing.B) {
	c := synth.Poverty(synth.Config{Seed: 1, Scale: 8})
	cands := discovery.Discover(c.Base, c.Repo, c.Target, discovery.Options{})
	opts := Options{Target: c.Target, Seed: 2, CoresetSize: 256}
	want, err := Augment(c.Base, cands, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := opts.validate(c.Base); err != nil {
		b.Fatal(err)
	}
	r, err := newRun(c.Base, cands, opts)
	if err != nil {
		b.Fatal(err)
	}
	r.res.Table = want.Table
	b.ResetTimer()
	for range b.N {
		if _, err := r.evaluate(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	got := &r.res
	if math.Float64bits(got.BaseScore) != math.Float64bits(want.BaseScore) ||
		math.Float64bits(got.FinalScore) != math.Float64bits(want.FinalScore) {
		b.Fatalf("evaluate scored %v → %v, the run %v → %v", got.BaseScore, got.FinalScore, want.BaseScore, want.FinalScore)
	}
}

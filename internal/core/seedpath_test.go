package core

import (
	"fmt"
	"testing"
)

// TestStageSeedPathUniqueness guards the seed-splitting contract underneath
// every stage RNG: across the stage/id paths the pipeline actually derives —
// coreset, per-ordinal screening, per-(batch, candidate) joins, per-batch
// imputation and sketching, per-ordinal materialization, the final
// imputation, and one nesting level
// of per-repetition selector splits — no two distinct paths may collide on
// the derived seed, for a sampled set of run seeds. A collision would
// silently correlate two stages' randomness and undermine the determinism
// guarantees the worker pool relies on.
func TestStageSeedPathUniqueness(t *testing.T) {
	const maxBatch, maxCand = 48, 48
	for _, runSeed := range []int64{0, 1, 2, 7, 42, -1, -13, 1 << 40, -(1 << 52)} {
		seen := make(map[int64]string, 1<<14)
		add := func(path string, ids ...int64) {
			s := stageSeed(runSeed, ids...)
			if prev, dup := seen[s]; dup {
				t.Fatalf("run seed %d: stage paths %s and %s derive the same seed %d",
					runSeed, prev, path, s)
			}
			seen[s] = path
		}
		add("coreset", seedStageCoreset)
		add("final-impute", seedStageFinal)
		for bi := int64(0); bi < maxBatch; bi++ {
			add(fmt.Sprintf("impute/%d", bi), seedStageImpute, bi)
			add(fmt.Sprintf("sketch/%d", bi), seedStageSketch, bi)
			for ci := int64(0); ci < maxCand; ci++ {
				add(fmt.Sprintf("join/%d/%d", bi, ci), seedStageJoin, bi, ci)
			}
		}
		for ord := int64(0); ord < maxBatch*maxCand; ord++ {
			add(fmt.Sprintf("materialize/%d", ord), seedStageMaterialize, ord)
			add(fmt.Sprintf("screen/%d", ord), seedStageScreen, ord)
		}
	}
}

package featsel

import (
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/testenv"
)

// BenchmarkRStar measures the K parallel injection repetitions of RIFS —
// the pipeline's dominant cost (paper §7, Figure 4) — at 1 worker vs all
// cores. The selected r* vector is identical either way; only wall-clock
// changes.
func BenchmarkRStar(b *testing.B) {
	ds := planted(ml.Classification, 300, 3, 30, 71)
	r := &RIFS{Config: RIFSConfig{K: 8, Forest: ForestRanker{NTrees: 20, MaxDepth: 8}}}
	testenv.BenchSpeedup(b, func() {
		if _, err := r.RStar(ds, 72); err != nil {
			b.Fatal(err)
		}
	})
}

package testenv

import (
	"math"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/parallel"
)

// BenchSpeedup times f on one worker and on every available core (best of
// three each), runs the measured loop at full width, and reports the ratio as
// the "speedup_x" metric. On a multi-core machine the metric shows the win;
// on one core it honestly reports ~1.
func BenchSpeedup(b *testing.B, f func()) {
	defer parallel.SetMaxWorkers(0)
	best := func(workers int) time.Duration {
		parallel.SetMaxWorkers(workers)
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq, par := best(1), best(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.StopTimer()
	// ResetTimer deletes user metrics, so report after the measured loop.
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_x")
	}
	b.ReportMetric(float64(parallel.MaxWorkers()), "workers")
}

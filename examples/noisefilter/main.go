// Noise filter: the paper's micro benchmark (§7.2). Ten times the original
// feature count of pure noise is appended to the Kraken sensor dataset, and
// every registered feature selector competes on how much of it it filters
// out while preserving accuracy — the experiment behind Figure 6 and Table 6,
// whose relations TestClaimRIFSFiltersNoise asserts. A selector that keeps
// nothing prints "none" and is not scored.
//
//	go run ./examples/noisefilter
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/arda-ml/arda/internal/automl"
	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/synth"
)

func main() {
	base := synth.Kraken(synth.Config{Seed: 5})
	aug, isOriginal := synth.InjectNoise(base, 10, 6)
	fmt.Printf("kraken: %d samples, %d real features + %d injected noise features\n\n",
		aug.N, base.D, aug.D-base.D)

	split := eval.TrainTestSplit(aug, 0.25, 7)
	train := aug.Subset(split.Train)
	test := aug.Subset(split.Test)
	est := automl.DefaultEstimator(7)

	fmt.Printf("%-16s %9s %9s %9s %9s\n", "method", "accuracy", "selected", "original", "time")
	for _, m := range featsel.AllMethods() {
		sel, err := featsel.New(m)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		cols, err := sel.Select(train, est, 8)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Round(10 * time.Millisecond)
		if len(cols) == 0 {
			fmt.Printf("%-16s %9s %9d %9d %9s\n", string(m), "none", 0, 0, elapsed)
			continue
		}
		model := est(train.SelectFeatures(cols))
		pred := ml.PredictAll(model, test.SelectFeatures(cols))
		acc := eval.Accuracy(pred, test.Y)
		orig := 0
		for _, j := range cols {
			if isOriginal[j] {
				orig++
			}
		}
		fmt.Printf("%-16s %8.1f%% %9d %9d %9s\n", string(m), 100*acc, len(cols), orig, elapsed)
	}

	fmt.Println("\nA good selector keeps a small set dominated by real features; 'all")
	fmt.Println("features' shows what the model has to cope with when nothing is filtered.")
}

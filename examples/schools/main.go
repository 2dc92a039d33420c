// Schools: a large, noisy repository (School-L style — hundreds of joinable
// tables, most of them useless). This example shows what matters at
// repository scale: the screen stage cuts 350 tables to the ones a selection
// round can rank on the coreset, and RIFS keeps what beats injected noise.
// It runs the same classification task with ARDA's defaults, with the
// Tuple-Ratio prefilter in front, and with every screened table's features
// kept, reporting quality and wall time for each.
//
//	go run ./examples/schools
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/synth"
)

func main() {
	// School-L: 350 joinable tables, 5 with planted signal.
	corpus := synth.SchoolL(synth.Config{Seed: 3, Scale: 0.15})
	fmt.Printf("base:       %d schools, target %q (3 classes)\n", corpus.Base.NumRows(), corpus.Target)
	fmt.Printf("repository: %d tables, %d carrying signal\n\n", len(corpus.Repo), len(corpus.RelevantTables))

	cands := arda.Discover(corpus.Base, corpus.Repo, corpus.Target)
	fmt.Printf("discovery proposed %d candidate joins\n\n", len(cands))

	all, err := arda.NewSelector(arda.AllFeatures)
	if err != nil {
		log.Fatal(err)
	}
	runs := []struct {
		name string
		opts arda.Options
	}{
		{"ARDA (default)", arda.Options{}},
		{"ARDA + TR prefilter", arda.Options{TupleRatioTau: 2.5}},
		// No selection: every feature of every table the screen passes on.
		{"all screened tables", arda.Options{Selector: all}},
	}

	fmt.Printf("%-36s %9s %9s %6s %9s\n", "configuration", "base", "augmented", "kept", "time")
	for _, r := range runs {
		opts := r.opts
		opts.Target = corpus.Target
		opts.CoresetSize = 256
		opts.Seed = 3
		start := time.Now()
		res, err := arda.Augment(corpus.Base, cands, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %9.3f %9.3f %6d %9s\n",
			r.name, res.BaseScore, res.FinalScore, len(res.KeptColumns),
			time.Since(start).Round(100*time.Millisecond))
		if res.CandidatesScreened > 0 {
			fmt.Printf("%-36s (screen passed on %d of %d tables)\n", "",
				len(res.Screened)-res.CandidatesScreened, len(res.Screened))
		}
		if res.CandidatesFiltered > 0 {
			fmt.Printf("%-36s (TR rule removed %d tables before joining)\n", "", res.CandidatesFiltered)
		}
	}

	fmt.Println("\nThe screened tables are joined together and selected in one round, so")
	fmt.Println("co-predicting features split across tables (tutoring hours x district")
	fmt.Println("volunteering) are ranked side by side rather than in isolation.")
}

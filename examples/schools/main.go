// Schools: a large, noisy repository (School-L style — hundreds of joinable
// tables, most of them useless). This example shows what matters at
// repository scale: the screen stage cuts 350 tables to the ones a selection
// round can rank on the coreset, and the join plan decides how those are
// offered. It runs the same classification task with table-join,
// budget-join, and budget-join + TR prefilter, reporting quality and wall
// time for each.
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

	runs := []struct {
		name  string
		opts  arda.Options
		cands []arda.Candidate
	}{
		// Table-join runs one feature-selection pass per table that survives
		// the screen; even capped to the 100 highest-scored candidates it is
		// far slower than budget-join over all 350.
		{"table-join (top 100 candidates)", arda.Options{Plan: arda.TableJoin}, cands[:100]},
		{"budget-join (default)", arda.Options{Plan: arda.BudgetJoin}, cands},
		{"budget-join + TR prefilter", arda.Options{Plan: arda.BudgetJoin, TupleRatioTau: 2.5}, cands},
	}

	// A lighter RIFS (fewer injection repetitions, smaller ranking forest)
	// keeps the one-table-a-batch table-join run tractable for a demo.
	selector := arda.NewRIFS(arda.RIFSConfig{K: 4})

	fmt.Printf("%-36s %9s %9s %6s %9s\n", "configuration", "base", "augmented", "kept", "time")
	for _, r := range runs {
		opts := r.opts
		opts.Target = corpus.Target
		opts.CoresetStrategy = arda.CoresetStratified
		opts.CoresetSize = 256
		opts.Selector = selector
		opts.Seed = 3
		start := time.Now()
		res, err := arda.Augment(corpus.Base, r.cands, opts)
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

	fmt.Println("\nBudget-join groups tables into feature-budget batches, so co-predicting")
	fmt.Println("features split across tables (tutoring hours x district volunteering)")
	fmt.Println("can be discovered together; table-join evaluates them in isolation.")
}

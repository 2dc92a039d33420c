// Command arda runs automatic relational data augmentation end-to-end over a
// directory of CSV files: it loads a base table and a repository, discovers
// candidate joins, executes the ARDA pipeline, prints a report, and writes
// the augmented table.
//
// Usage:
//
//	arda -dir data/ -base taxi -target collisions -out augmented.csv
//
// Flags tune the pipeline: -selector picks the feature-selection method
// (default RIFS), -plan the join plan (budget|table|full), -coreset the
// row-reduction strategy (uniform|stratified|sketch), -tau enables the
// Tuple-Ratio prefilter. Observability: -v streams live stage progress plus
// the stage-cost tree with per-stage p50/p95/p99 latencies to stderr,
// -trace writes the run's span/counter event stream as NDJSON (published
// atomically when the run finishes — including canceled and timed-out
// runs), and -metrics-addr serves live telemetry: /metrics (Prometheus text
// exposition of counters, gauges, and latency histograms), /statusz (the
// live rendered stage tree), /events (the NDJSON event stream, replayed from
// the start of the run), and the net/http/pprof profiles under
// /debug/pprof/.
//
// Durability: -checkpoint-dir snapshots pipeline state after every stage so
// a killed run can continue with -resume; -checkpoint-ttl discards saved
// state older than the given age before the run. SIGINT/SIGTERM stop the
// run at the next stage boundary with a partial report.
//
// Exit codes: 0 success, 1 hard failure, 2 canceled (signal), 3 deadline
// exceeded, 4 unusable checkpoint state under -resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/cli"
	"github.com/arda-ml/arda/internal/metrics"
	"github.com/arda-ml/arda/internal/parallel"
)

// Exit codes for scripted callers.
const (
	exitCanceled   = 2
	exitDeadline   = 3
	exitCheckpoint = 4
)

func main() {
	var (
		mode        = flag.String("mode", "augment", "augment | discover (list candidate joins) | describe (profile tables)")
		dir         = flag.String("dir", ".", "directory of CSV files (base table + repository)")
		baseName    = flag.String("base", "", "name of the base table (file name without .csv)")
		target      = flag.String("target", "", "target column in the base table")
		out         = flag.String("out", "", "path to write the augmented CSV (optional)")
		selector    = flag.String("selector", "RIFS", "feature selector: RIFS, random forest, sparse regression, lasso, logistic reg, linear svc, f-test, mutual info, relief, forward selection, backward selection, rfe, all features")
		plan        = flag.String("plan", "budget", "join plan: budget | table | full")
		strategy    = flag.String("coreset", "uniform", "coreset strategy: uniform | stratified | sketch | leverage")
		size        = flag.Int("size", 0, "coreset size (0 = automatic)")
		budget      = flag.Int("budget", 0, "feature budget per batch (0 = coreset size)")
		tau         = flag.Float64("tau", 0, "Tuple-Ratio prefilter threshold (0 = disabled)")
		seed        = flag.Int64("seed", 1, "random seed")
		softJoin    = flag.String("soft", "2way", "soft-key join method: 2way | nearest | hard")
		transitive  = flag.Bool("transitive", false, "also discover two-hop (transitive) join candidates")
		knnImpute   = flag.Int("knn-impute", 0, "use k-nearest-neighbour imputation with this k (0 = median/random)")
		sig         = flag.Int("significance", 0, "bootstrap resamples for the augmentation significance test (0 = off)")
		workers     = flag.Int("workers", 0, "max parallel workers (0 = all cores); results are identical for any value")
		timeout     = flag.Duration("timeout", 0, "bound the run's wall-clock time (e.g. 90s, 5m); an exceeded run stops with a partial report (0 = unbounded)")
		verbose     = flag.Bool("v", false, "stream pipeline progress and the stage-cost tree to stderr")
		traceFile   = flag.String("trace", "", "write the run's trace event stream to this file as NDJSON")
		metricsAddr = flag.String("metrics-addr", "", "serve live run telemetry on this address: /metrics (Prometheus), /statusz (stage tree), /events (NDJSON stream), /debug/pprof/")
		ckDir       = flag.String("checkpoint-dir", "", "snapshot pipeline state into this directory after every stage (crash-safe)")
		ckTTL       = flag.Duration("checkpoint-ttl", 0, "discard checkpoint state in -checkpoint-dir older than this before the run (0 = keep)")
		resume      = flag.Bool("resume", false, "continue from the last completed stage recorded in -checkpoint-dir")
	)
	flag.Parse()
	cli.Setup("arda", *verbose)

	// Observability: a trace is attached when anything will consume it — an
	// NDJSON file, the verbose stage tree, or the live telemetry server. Set
	// up before the (possibly slow) CSV load so /metrics and /events answer
	// from the moment the process is up; the stream sink's replay buffer
	// means even a subscriber that connects later sees the run from its
	// first span.
	var sinks []arda.TraceSink
	var traceSink interface{ Flush() error }
	if *traceFile != "" {
		s, err := arda.NewTraceFile(*traceFile)
		if err != nil {
			cli.Fatalf("creating trace file: %v", err)
		}
		traceSink = s
		sinks = append(sinks, s)
	}
	var stream *arda.TraceStream
	serveMetrics := *metricsAddr != "" && *mode == "augment"
	if serveMetrics {
		stream = arda.NewTraceStream(0)
		sinks = append(sinks, stream)
	}
	var trace *arda.Trace
	if *traceFile != "" || *verbose || serveMetrics {
		trace = arda.NewTrace(sinks...)
	}
	var msrv *metrics.Server
	if serveMetrics {
		srv, err := metrics.NewServer(*metricsAddr, trace, stream)
		if err != nil {
			cli.Fatalf("starting telemetry server: %v", err)
		}
		msrv = srv
		cli.Noticef("telemetry serving on http://%s/metrics (also /statusz, /events, /debug/pprof/)", srv.Addr())
	}

	// Load and discovery run on the worker pool before Augment applies
	// Options.Workers, so -workers is set here to bound them too.
	parallel.SetMaxWorkers(*workers)
	tables, err := arda.LoadCSVDir(*dir)
	if err != nil {
		cli.Fatalf("loading %s: %v", *dir, err)
	}
	if *mode == "describe" {
		for _, t := range tables {
			fmt.Print(arda.Describe(t))
		}
		return
	}
	if *baseName == "" || *target == "" {
		flag.Usage()
		os.Exit(2)
	}
	var base *arda.Table
	var repo []*arda.Table
	for _, t := range tables {
		if t.Name() == *baseName {
			base = t
		} else {
			repo = append(repo, t)
		}
	}
	if base == nil {
		cli.Fatalf("base table %q not found in %s (%d tables loaded)", *baseName, *dir, len(tables))
	}

	// Stale-checkpoint hygiene: a TTL sweep before the run, so an ancient
	// half-finished log is discarded (and the run starts fresh) instead of
	// being resumed weeks later. Losing a checkpoint costs recompute time,
	// never correctness.
	if *ckDir != "" && *ckTTL > 0 {
		if pruned, err := checkpoint.Prune(*ckDir, *ckTTL, 0, nil); err != nil {
			cli.Errorf("pruning checkpoints: %v", err)
		} else if len(pruned) > 0 {
			cli.Noticef("discarded %d stale checkpoint log(s) older than %s in %s", len(pruned), *ckTTL, *ckDir)
		}
	}

	opts := arda.Options{
		Target:        *target,
		CoresetSize:   *size,
		Budget:        *budget,
		TupleRatioTau: *tau,
		Seed:          *seed,
		KNNImpute:     *knnImpute,
		Significance:  *sig,
		Workers:       *workers,
		Timeout:       *timeout,
		CheckpointDir: *ckDir,
		Resume:        *resume,
	}
	if *verbose {
		opts.Logf = cli.Progressf
	}
	opts.Trace = trace

	switch *plan {
	case "budget":
		opts.Plan = arda.BudgetJoin
	case "table":
		opts.Plan = arda.TableJoin
	case "full":
		opts.Plan = arda.FullMaterialization
	default:
		cli.Fatalf("unknown plan %q", *plan)
	}
	switch *strategy {
	case "uniform":
		opts.CoresetStrategy = arda.CoresetUniform
	case "stratified":
		opts.CoresetStrategy = arda.CoresetStratified
	case "sketch":
		opts.CoresetStrategy = arda.CoresetSketch
	case "leverage":
		opts.CoresetStrategy = arda.CoresetLeverage
	default:
		cli.Fatalf("unknown coreset strategy %q", *strategy)
	}
	switch *softJoin {
	case "2way":
		opts.SoftMethod = arda.TwoWayNearest
	case "nearest":
		opts.SoftMethod = arda.NearestNeighbor
	case "hard":
		opts.SoftMethod = arda.HardExact
	default:
		cli.Fatalf("unknown soft-join method %q", *softJoin)
	}
	sel, err := arda.NewSelector(arda.Method(*selector))
	if err != nil {
		cli.Fatalf("%v", err)
	}
	opts.Selector = sel

	fmt.Printf("base table: %s\n", base)
	fmt.Printf("repository: %d tables\n", len(repo))
	cands := arda.Discover(base, repo, *target)
	fmt.Printf("discovered: %d candidate joins\n", len(cands))
	if *transitive {
		trans := arda.DiscoverTransitive(base, repo, *target, *seed)
		fmt.Printf("transitive: %d widened candidates\n", len(trans))
		cands = append(cands, trans...)
	}
	if *mode == "discover" {
		for _, c := range cands {
			kind := "hard"
			if c.Geo {
				kind = "geo"
			} else if c.Soft {
				kind = "soft"
			}
			keys := ""
			for i, kp := range c.Keys {
				if i > 0 {
					keys += "+"
				}
				keys += kp.BaseColumn + "->" + kp.ForeignColumn
			}
			fmt.Printf("  %-24s score=%.2f %-4s %s\n", c.Table.Name(), c.Score, kind, keys)
		}
		return
	}

	// SIGINT/SIGTERM stop the run at the next stage boundary; the partial
	// report below still prints, and a -checkpoint-dir run can continue with
	// -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := arda.AugmentContext(ctx, base, cands, opts)
	// publishTrace flushes the NDJSON file sink (atomic publish) — the
	// pipeline finishes the trace even on interrupted exits, so canceled and
	// timed-out runs leave a valid, complete trace file too.
	publishTrace := func() error {
		if traceSink == nil {
			return nil
		}
		if err := traceSink.Flush(); err != nil {
			return err
		}
		cli.Noticef("trace written to %s", *traceFile)
		return nil
	}
	if err != nil {
		switch {
		case errors.Is(err, arda.ErrCanceled), errors.Is(err, arda.ErrDeadline):
			cli.Errorf("%v — partial report:", err)
			if res != nil {
				reportAttrition(res, *verbose)
				if res.Trace != nil {
					cli.Dump(res.Trace.Render())
				}
			}
			if err := publishTrace(); err != nil {
				cli.Errorf("writing trace file: %v", err)
			}
			msrv.Close()
			if *ckDir != "" {
				cli.Noticef("rerun with -resume to continue from the last completed stage in %s", *ckDir)
			}
			if errors.Is(err, arda.ErrDeadline) {
				os.Exit(exitDeadline)
			}
			os.Exit(exitCanceled)
		case errors.Is(err, arda.ErrCheckpointCorrupt), errors.Is(err, arda.ErrCheckpointMismatch):
			cli.Errorf("%v", err)
			cli.Noticef("rerun without -resume to discard the saved checkpoint state and start fresh")
			os.Exit(exitCheckpoint)
		}
		cli.Fatalf("%v", err)
	}

	if res.ResumedFrom != "" {
		fmt.Printf("resumed from checkpoint: %s\n", res.ResumedFrom)
	}
	fmt.Printf("\nbase score:      %.4f\n", res.BaseScore)
	fmt.Printf("augmented score: %.4f\n", res.FinalScore)
	fmt.Printf("kept columns:    %d (from %d tables)\n", len(res.KeptColumns), len(res.KeptTables))
	for _, name := range res.KeptTables {
		fmt.Printf("  + %s\n", name)
	}
	reportAttrition(res, *verbose)
	if res.Significance != nil {
		s := res.Significance
		fmt.Printf("significance: Δ=%.4f  p=%.3f  95%% CI [%.4f, %.4f]\n",
			s.MeanDelta, s.PValue, s.CI95[0], s.CI95[1])
	}
	fmt.Printf("elapsed: %s (selection %s)\n", res.Elapsed.Round(1e7), res.SelectionElapsed.Round(1e7))
	if res.Trace != nil {
		cli.Dump(res.Trace.Render())
	}
	// Trace.Finish already flushed inside the pipeline; the idempotent
	// re-Flush surfaces any publish error. The telemetry server closes after
	// the finished trace flushed the stream, so /events readers drain the
	// complete run before the listener goes away.
	if err := publishTrace(); err != nil {
		cli.Fatalf("writing trace file: %v", err)
	}
	msrv.Close()

	if *out != "" {
		if err := res.Table.WriteCSVFile(*out); err != nil {
			cli.Fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("augmented table written to %s (%d columns)\n", *out, res.Table.NumCols())
	}
}

// reportAttrition prints the candidate attrition and quarantine summary;
// verbose adds one line per table the screen scored and per quarantined
// candidate.
func reportAttrition(res *arda.Result, verbose bool) {
	prefiltered := res.CandidatesDeduped - res.CandidatesFiltered
	fmt.Printf("candidates: %d considered → %d after dedupe → %d after tuple-ratio → %d after screen\n",
		res.CandidatesConsidered, res.CandidatesDeduped, prefiltered, prefiltered-res.CandidatesScreened)
	if verbose {
		for _, s := range res.Screened {
			verdict := "dropped"
			if s.Kept {
				verdict = "kept"
			}
			cli.Progressf("  screen %-7s %s: score %.2f, %d features", verdict, s.Name, s.Score, s.Features)
		}
	}
	if len(res.Quarantined) == 0 {
		return
	}
	fmt.Printf("quarantined: %d candidates isolated by the fault boundary\n", len(res.Quarantined))
	if verbose {
		for _, q := range res.Quarantined {
			cli.Progressf("  quarantined %s at %s: %s", q.Name, q.Stage, q.Reason)
		}
	}
}

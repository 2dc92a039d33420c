// Command bench is the repository's one benchmark: it generates its inputs
// from -seed, runs the workloads, verifies their outputs, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run ./bench -seed 1                     all four workloads, bench/out/results.json
//	go run ./bench -workload wide-repo         one workload, end-to-end metrics
//	go run ./bench -workload wide-repo -trace 1   the same workload traced: per-layer metrics, span file
//	go run ./bench -agree A.json B.json        compare two result files against the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeconds equals run_seconds in BENCHMARK.json.
const defaultSeconds = 25

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (wide-repo, tall-base, service-steady, service-failover); empty runs all four, each in a fresh process")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs and the pipeline seeds")
		secs     = flag.Float64("seconds", defaultSeconds, "length of the timed phase of one workload")
		trace    = flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics and a span file")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result files, span files, the ardad binary and scratch data")
		agree    = flag.Bool("agree", false, "compare two result files (arguments A.json B.json) against the bounds")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace, *outDir, *agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, trace int, outDir string, agree bool, args []string) error {
	if agree {
		if len(args) != 2 {
			return errors.New("-agree takes two result files")
		}
		return agreeFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if secs <= 0 {
		return fmt.Errorf("-seconds must be positive, not %v", secs)
	}
	moduleRoot, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(moduleRoot, "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if outDir, err = filepath.Abs(outDir); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		return err
	}
	if workload == "" {
		return runAll(moduleRoot, seed, secs, outDir)
	}

	h := &harness{
		workload: workload, seed: seed, seconds: time.Duration(secs * float64(time.Second)), traced: trace == 1,
		moduleRoot: moduleRoot, outDir: outDir,
		m: metricSet{}, samples: map[string]int{}, config: map[string]any{},
	}
	if h.traced {
		h.rec = newRecorder()
	}
	if h.root, err = os.MkdirTemp(outDir, "scratch-"); err != nil {
		return err
	}
	h.onCleanup(func() { os.RemoveAll(h.root) })
	defer h.cleanup()
	stopSignals := h.cleanupOnSignal()
	defer stopSignals()

	switch {
	case batchWorkloads[workload].options != nil:
		err = h.runBatch(batchWorkloads[workload])
	case serviceWorkloads[workload].daemons > 0:
		err = h.runService(serviceWorkloads[workload])
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if h.traced {
		if err := h.diskProbes(); err != nil {
			return err
		}
		if err := h.codeLines(); err != nil {
			return err
		}
		if err := h.rec.write(filepath.Join(outDir, "trace-"+workload+".ndjson")); err != nil {
			return err
		}
	}
	return h.report()
}

// harness carries one workload's run: where it works, what it measured, and
// what it must undo on the way out.
type harness struct {
	workload   string
	seed       int64
	seconds    time.Duration
	traced     bool
	moduleRoot string // the checkout; go.mod lives here
	outDir     string
	root       string    // scratch root, removed on every exit path
	rec        *recorder // nil unless traced

	m       metricSet
	samples map[string]int
	config  map[string]any
	shape   inputShape

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	cleanups  []func()
}

// count notes one attempted run.
func (h *harness) count() {
	h.mu.Lock()
	h.attempted++
	h.mu.Unlock()
}

// fail notes one failed run with its reason.
func (h *harness) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	h.mu.Lock()
	h.failed++
	h.failures = append(h.failures, msg)
	h.mu.Unlock()
}

// recoverAsFailure turns a panic in a goroutine the benchmark started into a
// failed run, so that the main goroutine still gets to clean up.
func (h *harness) recoverAsFailure(who string) {
	if p := recover(); p != nil {
		h.fail("%s panicked: %v", who, p)
	}
}

// onCleanup registers f to run, last registered first, on every exit path.
func (h *harness) onCleanup(f func()) {
	h.mu.Lock()
	h.cleanups = append(h.cleanups, f)
	h.mu.Unlock()
}

func (h *harness) cleanup() {
	h.mu.Lock()
	fs := h.cleanups
	h.cleanups = nil
	h.mu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// cleanupOnSignal makes SIGINT and SIGTERM kill the daemons and remove the
// scratch root before the process exits. (A panic unwinds through run's
// deferred cleanup.)
func (h *harness) cleanupOnSignal() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-ch:
			fmt.Fprintln(os.Stderr, "bench: received", s, "- cleaning up")
			h.cleanup()
			os.Exit(1)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// workloadResult is what one run of one workload leaves behind: the file
// result-<workload>-trace<n>.json, and one entry of results.json.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Input     inputShape             `json:"input"`
	Config    map[string]any         `json:"config"`
}

// report prints the workload's metrics, writes its result file, and ends
// standard output with the one-line JSON result.
func (h *harness) report() error {
	defs, trace := endToEnd, 0
	if h.traced {
		defs, trace = perLayer, 1
	}
	if h.attempted == 0 {
		return errors.New("no run was attempted")
	}
	res := workloadResult{
		Workload: h.workload, Trace: trace, Seed: h.seed, Seconds: h.seconds.Seconds(),
		Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Failures: h.failures,
		Metrics: h.m.fill(defs), Samples: h.samples, Input: h.shape, Config: h.config,
	}
	if err := writeJSON(filepath.Join(h.outDir, fmt.Sprintf("result-%s-trace%d.json", h.workload, trace)), res); err != nil {
		return err
	}
	printMetrics(res, defs)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if h.failed > 0 {
		return fmt.Errorf("%s: %d of %d runs failed", h.workload, h.failed, h.attempted)
	}
	return nil
}

// printMetrics lists every metric of a result by name, with its unit and,
// where one was taken, the number of samples behind it.
func printMetrics(res workloadResult, defs []metricDef) {
	fmt.Printf("%s  seed %d  trace %d  %.0fs  %s x%g: %d base rows, %d tables, %.1f MB CSV\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Input.Corpus, res.Input.Scale,
		res.Input.BaseRows, res.Input.Tables, float64(res.Input.CSVBytes)/1e6)
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.4f %s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-34s %14.4f ratio  (%d of %d)\n", "failed_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		if _, ok := res.Metrics[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14d samples\n", k, res.Samples[k])
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

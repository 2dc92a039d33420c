package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// provenance says what was measured and where, so that two result files can
// be told apart before their numbers are compared.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	StartedAt  string  `json:"started_at"`
}

// workloadEntry is one workload in results.json: the untraced run's
// end-to-end metrics and the traced run's per-layer metrics.
type workloadEntry struct {
	Workload string          `json:"workload"`
	Why      string          `json:"why"`
	EndToEnd *workloadResult `json:"end_to_end"`
	PerLayer *workloadResult `json:"per_layer"`
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Provenance provenance         `json:"provenance"`
	Bounds     map[string]float64 `json:"bounds"`
	Workloads  []workloadEntry    `json:"workloads"`
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func collectProvenance(moduleRoot string, seed int64, secs float64) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: secs,
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	// A checkout that is not a git repository keeps "unknown".
	if commit, err := gitOutput(moduleRoot, "rev-parse", "HEAD"); err == nil {
		p.Commit = commit
		status, err := gitOutput(moduleRoot, "status", "--porcelain")
		p.Dirty = err != nil || status != ""
	}
	return p
}

// runAll runs every workload twice — untraced, then traced — each in a fresh
// process of this same binary, so that peak memory and caches start clean,
// and merges what they wrote into results.json.
func runAll(moduleRoot string, seed int64, secs float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out := resultsFile{Provenance: collectProvenance(moduleRoot, seed, secs), Bounds: map[string]float64{}}
	for _, d := range endToEnd {
		out.Bounds[d.Name] = d.Bound
	}
	start := time.Now()
	failed := 0
	for _, w := range workloads {
		entry := workloadEntry{Workload: w.Name, Why: w.Why}
		for trace := 0; trace <= 1; trace++ {
			resultPath := filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", w.Name, trace))
			os.Remove(resultPath) // a child that dies early must not leave an older run's file to be read
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// On SIGINT/SIGTERM the child gets SIGTERM and time to kill its
			// daemons and remove its scratch data.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 15 * time.Second
			runErr := cmd.Run()
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted during %s", w.Name)
			}
			res := &workloadResult{}
			err := readJSON(resultPath, res)
			if runErr != nil || err != nil || !res.Correct {
				failed++
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d) failed: %v %v\n", w.Name, trace, runErr, err)
			}
			if err == nil && trace == 0 {
				entry.EndToEnd = res
			} else if err == nil {
				entry.PerLayer = res
			}
			fmt.Println()
		}
		out.Workloads = append(out.Workloads, entry)
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	printSummary(os.Stdout, out)
	fmt.Printf("\nwrote %s and trace-<workload>.ndjson in %s (%.0fs)\n", path, outDir, time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed", failed)
	}
	return nil
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printSummary prints the end-to-end metrics of all workloads side by side.
func printSummary(w io.Writer, f resultsFile) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\tbound\t")
	for _, e := range f.Workloads {
		fmt.Fprintf(tw, "%s\t", e.Workload)
	}
	fmt.Fprintln(tw)
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t", d.Name, d.Unit, 100*d.Bound)
		for _, e := range f.Workloads {
			if e.EndToEnd == nil {
				fmt.Fprint(tw, "-\t")
				continue
			}
			fmt.Fprintf(tw, "%.4g\t", e.EndToEnd.Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "failed_share\tratio\t0\t")
	for _, e := range f.Workloads {
		var failed, attempted int
		for _, r := range []*workloadResult{e.EndToEnd, e.PerLayer} {
			if r != nil {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		fmt.Fprintf(tw, "%.4g\t", ratio(float64(failed), float64(attempted)))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// agreeRow is the verdict on one (metric, workload) pair of two result files.
type agreeRow struct {
	Metric, Workload string
	A, B             float64
	WorseBy, Bound   float64
	Pass             bool
	Note             string
}

// compareResults judges b against a: every end-to-end metric of every
// workload may be worse by at most its bound, and a metric that is a pure
// function of the seed must repeat exactly when the seeds are equal.
func compareResults(a, b resultsFile) []agreeRow {
	byName := map[string]*workloadResult{}
	for _, e := range b.Workloads {
		byName[e.Workload] = e.EndToEnd
	}
	var rows []agreeRow
	for _, e := range a.Workloads {
		ra, rb := e.EndToEnd, byName[e.Workload]
		for _, d := range endToEnd {
			row := agreeRow{Metric: d.Name, Workload: e.Workload, Bound: d.Bound}
			switch {
			case ra == nil || rb == nil:
				row.Note = "missing in one file"
			case ra.Failed > 0 || rb.Failed > 0:
				row.Note = "failed runs"
			default:
				row.A, row.B = ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				row.WorseBy = worseBy(row.A, row.B, d.Better)
				row.Pass = row.WorseBy <= d.Bound
				if d.Exact && ra.Seed == rb.Seed && row.A != row.B {
					row.Pass, row.Note = false, "must repeat exactly at equal seeds"
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// agreeFiles prints one pass/fail row per (metric, workload) and returns an
// error if any pair fails.
func agreeFiles(w io.Writer, pathA, pathB string) error {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	rows := compareResults(a, b)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "verdict\tmetric\tworkload\tA\tB\tworse by\tbound\tnote")
	failed := 0
	for _, r := range rows {
		verdict := "pass"
		if !r.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
			verdict, r.Metric, r.Workload, r.A, r.B, 100*r.WorseBy, 100*r.Bound, r.Note)
	}
	tw.Flush()
	if failed > 0 {
		return fmt.Errorf("%d of %d (metric, workload) pairs disagree", failed, len(rows))
	}
	return nil
}

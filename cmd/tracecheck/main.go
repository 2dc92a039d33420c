// Command tracecheck validates an NDJSON pipeline trace (written by
// `arda -trace file`) against the span-event schema: every line must be a
// well-formed event of a known type with sane fields, span paths must be
// rooted, and exactly one terminal "run" event must close the stream. With
// -stages it additionally requires span coverage of the named pipeline
// stages — the `make trace-smoke` gate.
//
// With -scrape it instead validates a live `arda -metrics-addr` server: it
// connects to /events (retrying until the server is up), scrapes /metrics
// mid-run and checks the Prometheus text exposition syntax (plus any
// -require-metrics names), then drains the event stream to completion and
// validates it like a trace file — the `make metrics-smoke` gate.
//
// Usage:
//
//	tracecheck trace.ndjson
//	tracecheck -stages prefilter,coreset,screen,join,impute,select,materialize,evaluate trace.ndjson
//	tracecheck -scrape http://127.0.0.1:9090 -stages ... -require-metrics arda_join_seconds,arda_workers_in_flight
//	arda ... -trace /dev/stdout | tracecheck -
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/cli"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/retry"
)

// fatalScrape wraps an error that must abort the scrape poll immediately
// (e.g. a syntactically invalid exposition, which will not fix itself).
type fatalScrape struct{ err error }

func (f *fatalScrape) Error() string { return f.err.Error() }
func (f *fatalScrape) Unwrap() error { return f.err }

func main() {
	var (
		stages   = flag.String("stages", "", "comma-separated span names that must appear in the trace")
		scrape   = flag.String("scrape", "", "base URL of a live arda -metrics-addr server to validate instead of a trace file")
		evPath   = flag.String("events-path", "/events", "events endpoint path on the -scrape server (e.g. /runs/r000000/events against ardad)")
		reqMet   = flag.String("require-metrics", "", "comma-separated metric-name prefixes the /metrics exposition must contain (with -scrape)")
		waitSecs = flag.Int("scrape-wait", 30, "seconds to retry connecting to the -scrape server")
		verbose  = flag.Bool("v", false, "print a per-type event summary")
	)
	flag.Parse()
	cli.Setup("tracecheck", *verbose)

	required := map[string]bool{}
	for _, s := range strings.Split(*stages, ",") {
		if s = strings.TrimSpace(s); s != "" {
			required[s] = true
		}
	}

	if *scrape != "" {
		if flag.NArg() != 0 {
			cli.Fatalf("-scrape takes no trace file argument")
		}
		if err := scrapeLive(*scrape, *evPath, required, splitList(*reqMet), time.Duration(*waitSecs)*time.Second); err != nil {
			cli.Fatalf("%s: %v", *scrape, err)
		}
		return
	}

	in := os.Stdin
	src := "stdin"
	if flag.NArg() > 1 {
		cli.Fatalf("at most one trace file argument, got %d", flag.NArg())
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			cli.Fatalf("%v", err)
		}
		defer f.Close()
		in = f
		src = flag.Arg(0)
	}

	summary, err := validate(in, required)
	if err != nil {
		cli.Fatalf("%s: %v", src, err)
	}
	fmt.Printf("trace OK: %d spans, %d counters, %d histograms, root %q (%d distinct span names)\n",
		summary.spans, summary.counters, summary.hists, summary.root, len(summary.names))
	cli.Progressf("span names: %s", strings.Join(summary.sortedNames(), ", "))
}

// splitList parses a comma-separated flag into trimmed non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// scrapePoll is the shared backoff for waiting on a live server: unbounded
// attempts at a flat 10ms cadence (a CLI run can be over in ~100ms, so a
// coarser poll can miss it), stopped by the scrape-wait deadline on
// the context (see internal/retry).
var scrapePoll = retry.Policy{Base: 10 * time.Millisecond, Max: 10 * time.Millisecond}

// scrapeLive validates a running telemetry server end-to-end: it subscribes
// to the events endpoint first (so the scrape provably happens while the run
// is live), checks the /metrics exposition, then drains the event stream —
// which terminates when the run finishes — and validates it as a full trace.
// eventsPath selects the stream: "/events" on a single-run arda server, or
// "/runs/{id}/events" on an ardad daemon.
func scrapeLive(base, eventsPath string, requiredStages map[string]bool, requiredMetrics []string, wait time.Duration) error {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(eventsPath, "/") {
		eventsPath = "/" + eventsPath
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()

	var events *http.Response
	var lastErr error
	if err := retry.Do(ctx, scrapePoll, retry.Always, func() error {
		resp, err := http.Get(base + eventsPath)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("status %s", resp.Status)
		}
		if err != nil {
			lastErr = err
			return err
		}
		events = resp
		return nil
	}); err != nil {
		if lastErr != nil {
			err = lastErr
		}
		return fmt.Errorf("connecting to %s: %v", eventsPath, err)
	}
	defer events.Body.Close()

	// The run is live now (the events stream is open and unterminated):
	// scrape and validate the exposition. The server comes up before the
	// pipeline registers its stage histograms, so retry until the required
	// names appear — every scrape must still be syntactically valid.
	var metricNames map[string]bool
	retryable := func(err error) bool {
		var fatal *fatalScrape
		return !errors.As(err, &fatal)
	}
	if err := retry.Do(ctx, scrapePoll, retryable, func() error {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			lastErr = fmt.Errorf("scraping /metrics: %v", err)
			return lastErr
		}
		metricNames, err = validateExposition(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			// A malformed exposition will not fix itself — fail immediately
			// by reporting a non-retryable terminal error.
			return &fatalScrape{fmt.Errorf("/metrics exposition: %v", err)}
		}
		var missing []string
		for _, want := range requiredMetrics {
			found := false
			for name := range metricNames {
				if strings.HasPrefix(name, want) {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, want)
			}
		}
		if len(missing) > 0 {
			lastErr = fmt.Errorf("/metrics missing required metrics: %s", strings.Join(missing, ", "))
			return lastErr
		}
		return nil
	}); err != nil {
		var fatal *fatalScrape
		if errors.As(err, &fatal) {
			return fatal.err
		}
		if lastErr != nil {
			err = lastErr
		}
		return err
	}
	fmt.Printf("metrics OK: %d metric families exposed\n", len(metricNames))

	// Drain the stream to completion and validate it like a trace file.
	sum, err := validate(events.Body, requiredStages)
	if err != nil {
		return fmt.Errorf("/events stream: %v", err)
	}
	fmt.Printf("events OK: %d spans, %d counters, %d histograms, root %q (%d distinct span names)\n",
		sum.spans, sum.counters, sum.hists, sum.root, len(sum.names))
	return nil
}

// summary accumulates what the trace contained.
type summary struct {
	spans, counters, hists int
	root                   string
	names                  map[string]int
}

func (s *summary) sortedNames() []string {
	names := make([]string, 0, len(s.names))
	for n := range s.names {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// validate checks every NDJSON line against the obs.Event schema and the
// stream-level invariants, then the required stage coverage.
func validate(r io.Reader, required map[string]bool) (*summary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sum := &summary{names: map[string]int{}}
	runSeen := false
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			return nil, fmt.Errorf("line %d: empty line", line)
		}
		if runSeen {
			return nil, fmt.Errorf("line %d: event after the terminal run event", line)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("line %d: not a valid trace event: %v", line, err)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("line %d: event has no name", line)
		}
		if ev.DurUS < 0 || ev.StartUS < 0 {
			return nil, fmt.Errorf("line %d: negative timing (start_us=%d dur_us=%d)", line, ev.StartUS, ev.DurUS)
		}
		switch ev.Type {
		case obs.EventSpan:
			if ev.Path == "" {
				return nil, fmt.Errorf("line %d: span %q has no path", line, ev.Name)
			}
			if ev.Ord < 0 {
				return nil, fmt.Errorf("line %d: span %q has negative ord", line, ev.Name)
			}
			root := ev.Path
			if i := strings.IndexByte(root, '/'); i >= 0 {
				root = root[:i]
			}
			if sum.root == "" {
				sum.root = root
			} else if root != sum.root {
				return nil, fmt.Errorf("line %d: span path %q not rooted at %q", line, ev.Path, sum.root)
			}
			sum.spans++
			sum.names[ev.Name]++
		case obs.EventCounter:
			sum.counters++
		case obs.EventHist:
			if ev.Value < 0 {
				return nil, fmt.Errorf("line %d: histogram %q has negative count", line, ev.Name)
			}
			sum.hists++
		case obs.EventRun:
			runSeen = true
		default:
			return nil, fmt.Errorf("line %d: unknown event type %q", line, ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line == 0 {
		return nil, fmt.Errorf("trace is empty")
	}
	if !runSeen {
		return nil, fmt.Errorf("missing terminal run event")
	}
	if sum.spans == 0 {
		return nil, fmt.Errorf("trace has no span events")
	}
	var missing []string
	for stage := range required {
		if sum.names[stage] == 0 {
			missing = append(missing, stage)
		}
	}
	if len(missing) > 0 {
		for i := 1; i < len(missing); i++ {
			for j := i; j > 0 && missing[j] < missing[j-1]; j-- {
				missing[j], missing[j-1] = missing[j-1], missing[j]
			}
		}
		return nil, fmt.Errorf("required stages missing from trace: %s", strings.Join(missing, ", "))
	}
	return sum, nil
}

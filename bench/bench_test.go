package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.5, 7},
		{"odd", []float64{9, 1, 5}, 0.5, 5},
		{"even takes the mean of the middle two", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
		{"p90 interpolates", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{"p25 interpolates", []float64{10, 20, 30, 40}, 0.25, 17.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileEligibility(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false},
		{100, 0.9, true},
		{120, 0.9, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{999, 0.99, false},
		{1000, 0.99, true},
		{5, 0.9, false},
	}
	for _, c := range cases {
		if got := percentileEligible(c.n, c.q); got != c.want {
			t.Errorf("percentileEligible(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{"leaf keeps its whole duration",
			[]span{{ID: 1, StartNS: 0, EndNS: 100}},
			map[int]int64{1: 100}},
		{"sequential children are subtracted",
			[]span{{ID: 1, StartNS: 0, EndNS: 100}, {ID: 2, Parent: 1, StartNS: 10, EndNS: 30}, {ID: 3, Parent: 1, StartNS: 50, EndNS: 90}},
			map[int]int64{1: 40, 2: 20, 3: 40}},
		{"overlapping children are covered once",
			[]span{{ID: 1, StartNS: 0, EndNS: 100}, {ID: 2, Parent: 1, StartNS: 10, EndNS: 60}, {ID: 3, Parent: 1, StartNS: 40, EndNS: 80}},
			map[int]int64{1: 30, 2: 50, 3: 40}},
		{"a child inside another child adds nothing",
			[]span{{ID: 1, StartNS: 0, EndNS: 100}, {ID: 2, Parent: 1, StartNS: 10, EndNS: 90}, {ID: 3, Parent: 1, StartNS: 20, EndNS: 30}},
			map[int]int64{1: 20, 2: 80, 3: 10}},
		{"a child reaching outside its parent is clipped",
			[]span{{ID: 1, StartNS: 10, EndNS: 50}, {ID: 2, Parent: 1, StartNS: 0, EndNS: 30}, {ID: 3, Parent: 1, StartNS: 40, EndNS: 70}},
			map[int]int64{1: 10, 2: 30, 3: 30}},
		{"grandchildren count against their own parent only",
			[]span{{ID: 1, StartNS: 0, EndNS: 100}, {ID: 2, Parent: 1, StartNS: 0, EndNS: 50}, {ID: 3, Parent: 2, StartNS: 0, EndNS: 50}},
			map[int]int64{1: 50, 2: 0, 3: 50}},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: selfTimes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderWritesSpans(t *testing.T) {
	var off *recorder
	if id := off.start(0, "r", "x"); id != 0 {
		t.Errorf("nil recorder handed out span id %d", id)
	}
	off.end(0)
	off.reported(0, "r", nil, nil)

	rec := newRecorder()
	root := rec.start(0, "r1", "run")
	child := rec.start(root, "r1", "core.augment")
	rec.end(child)
	rec.reported(child, "r1", []string{"core.select", "core.evaluate"}, []time.Duration{30, 12})
	rec.end(root)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 4 {
		t.Fatalf("wrote %d spans, want 4:\n%s", len(got), raw)
	}
	augment, sel, ev := got[1], got[2], got[3]
	if augment.Name != "core.augment" || augment.Parent != root || augment.Run != "r1" {
		t.Errorf("second span = %+v", augment)
	}
	// Reported durations are laid end to end from their parent's start.
	if !sel.Reported || sel.Parent != child || sel.StartNS != augment.StartNS || sel.EndNS-sel.StartNS != 30 {
		t.Errorf("first reported span = %+v under %+v", sel, augment)
	}
	if ev.StartNS != sel.EndNS || ev.EndNS-ev.StartNS != 12 {
		t.Errorf("second reported span = %+v after %+v", ev, sel)
	}
}

func TestWorseBy(t *testing.T) {
	cases := []struct {
		a, b   float64
		better string
		want   float64
	}{
		{10, 11, "lower", 0.1},
		{10, 9, "lower", -0.1},
		{10, 9, "higher", 0.1},
		{10, 12, "higher", -0.2},
		{0, 0, "lower", 0},
		{0, 1, "lower", math.Inf(1)},
		{0, 1, "higher", math.Inf(-1)},
	}
	for _, c := range cases {
		if got := worseBy(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}

// resultWith builds a one-workload results file whose end-to-end metrics are
// the given values (the rest zero).
func resultWith(seed int64, failed int, values map[string]float64) resultsFile {
	return resultsFile{Workloads: []workloadEntry{{
		Workload: "wide-repo",
		EndToEnd: &workloadResult{Workload: "wide-repo", Seed: seed, Attempted: 4, Failed: failed, Metrics: metricSet(values).fill(endToEnd)},
	}}}
}

func TestCompareResults(t *testing.T) {
	base := map[string]float64{"setup_s": 1, "run_p50_s": 10, "throughput_runs_per_s": 2, "score_gain": 0.2, "peak_rss_mb": 100}
	with := func(name string, v float64) map[string]float64 {
		out := map[string]float64{}
		for k, x := range base {
			out[k] = x
		}
		out[name] = v
		return out
	}
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %q", name)
		return 0
	}
	cases := []struct {
		name     string
		a, b     resultsFile
		failing  []string
		wantRows int
	}{
		{"identical files agree", resultWith(1, 0, base), resultWith(1, 0, base), nil, len(endToEnd)},
		{"slower within the bound passes", resultWith(1, 0, base), resultWith(1, 0, with("run_p50_s", 10*(1+bound("run_p50_s")*0.9))), nil, len(endToEnd)},
		{"slower beyond the bound fails", resultWith(1, 0, base), resultWith(1, 0, with("run_p50_s", 10*(1+bound("run_p50_s")*1.1))), []string{"run_p50_s"}, len(endToEnd)},
		{"faster passes", resultWith(1, 0, base), resultWith(1, 0, with("run_p50_s", 1)), nil, len(endToEnd)},
		{"higher-is-better drops beyond the bound fail", resultWith(1, 0, base), resultWith(1, 0, with("throughput_runs_per_s", 2*(1-bound("throughput_runs_per_s")*1.1))), []string{"throughput_runs_per_s"}, len(endToEnd)},
		{"a quality metric must repeat exactly at equal seeds", resultWith(1, 0, base), resultWith(1, 0, with("score_gain", 0.201)), []string{"score_gain"}, len(endToEnd)},
		{"at different seeds only the bound applies", resultWith(1, 0, base), resultWith(2, 0, with("score_gain", 0.201)), nil, len(endToEnd)},
		{"failed runs fail every row", resultWith(1, 1, base), resultWith(1, 0, base), namesOf(endToEnd), len(endToEnd)},
		{"a workload missing from B fails every row", resultWith(1, 0, base), resultsFile{}, namesOf(endToEnd), len(endToEnd)},
	}
	for _, c := range cases {
		rows := compareResults(c.a, c.b)
		if len(rows) != c.wantRows {
			t.Errorf("%s: %d rows, want %d", c.name, len(rows), c.wantRows)
		}
		var failing []string
		for _, r := range rows {
			if !r.Pass {
				failing = append(failing, r.Metric)
			}
		}
		if !reflect.DeepEqual(failing, c.failing) {
			t.Errorf("%s: failing rows %v, want %v", c.name, failing, c.failing)
		}
	}
}

func namesOf(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func TestParseStatuszAndProm(t *testing.T) {
	body := []byte("draining: false\n" +
		"admitted 40  requeued 0  takeovers 2  completed 39  failed 0  canceled 0  lost 1\n" +
		"rejected: 0 full, 0 draining, 0 tenant\n" +
		"live: 1 queued, 1 running\n" +
		"leases: 2 held, 17 renewals\n\nr000000  completed poverty/poverty_rate\n")
	a, err := parseStatusz(body)
	if err != nil {
		t.Fatal(err)
	}
	want := accounting{Admitted: 40, Takeovers: 2, Completed: 39, Lost: 1, Queued: 1, Running: 1, Renewals: 17}
	if a != want {
		t.Errorf("parseStatusz = %+v, want %+v", a, want)
	}
	if !a.balanced() {
		t.Errorf("%+v should balance", a)
	}
	a.Completed++
	if a.balanced() {
		t.Errorf("%+v should not balance", a)
	}
	if _, err := parseStatusz([]byte("ok\n")); err == nil {
		t.Error("parseStatusz accepted a body without accounting lines")
	}

	m := parseProm([]byte("# TYPE arda_lease_takeovers untyped\narda_lease_takeovers 3\narda_queue_running 1\narda_queue_wait_seconds_bucket{le=\"0.001\"} 4\n"))
	if m["arda_lease_takeovers"] != 3 || m["arda_queue_running"] != 1 || len(m) != 2 {
		t.Errorf("parseProm = %v", m)
	}
	if got := parseVmHWM([]byte("Name:\tardad\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n")); got != 200 {
		t.Errorf("parseVmHWM = %v, want 200", got)
	}
	if !completedLine.MatchString("ardad: started r000003 after 2ms queued\nardad: completed r000003: base 0.1 → augmented 0.7, 5 columns kept\n") {
		t.Error("completedLine does not match the daemon's completion log line")
	}
}

func TestCountCodeLines(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("arda.go", "package arda\n\nfunc A() {}\n")
	write("internal/lease/lease.go", "package lease\n// two\n")
	write("internal/lease/lease_test.go", "package lease\n\n\n\n")
	write("internal/other/x.go", "package other\n")
	write("bench/main.go", "package main\n\n\n\n\n")
	write(".git/hooks/x.go", "package x\n")
	write("README.md", "# no\n")
	got, err := countCodeLines(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"total": 6, "lease": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("countCodeLines = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metric and workload tables in this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark has %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

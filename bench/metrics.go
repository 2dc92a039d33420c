package main

// This file is the single list of what the benchmark measures. BENCHMARK.json
// at the repository root and the tables in README.md repeat it; a unit test
// keeps BENCHMARK.json in step.

// metricDef names one metric. Bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may get worse before a
// change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a metric that is a pure function of -seed (no clock in
	// it): two runs of the same code at the same seed must agree exactly.
	Exact bool
}

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"wide-repo", "short base table (1,600 rows) against 350 candidate tables: discovery, RIFS repetitions and the threshold sweep do nearly all the work"},
	{"tall-base", "tall base table (12,000 rows) against 42 tables with a fixed 256-row coreset: CSV load, materialise and the final evaluation forests dominate, select is bounded"},
	{"service-steady", "one ardad, two closed-loop clients, light runs: admission, persist-before-ack, lease, checkpoints and per-run CSV reload are a visible share"},
	{"service-failover", "three ardad on one state dir, the owner of a running run is SIGKILLed four times: lease expiry, reaper takeover and peer reads from disk"},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25},
	{Name: "score_gain", Unit: "score", Better: "higher", Bound: 0.25, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layerPackages are the packages under internal/ whose size is tracked as
// code.lines.<pkg>, and whose names prefix the per-layer metrics.
var layerPackages = []string{
	"dataframe", "discovery", "core", "coreset", "join", "featsel", "ml", "eval",
	"parallel", "obs", "checkpoint", "runqueue", "lease", "server", "atomicio",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// End-to-end shaped, but too noisy or too rarely eligible to carry a bound.
		lo("run_p90_s", "s"),
		hi("table_recall", "ratio"),
		hi("table_precision", "ratio"),

		lo("dataframe.load_ms", "ms"),
		hi("dataframe.load_mb_per_s", "MB/s"),
		lo("dataframe.write_ms", "ms"),
		hi("dataframe.encode_cache_hit_ratio", "ratio"),

		lo("discovery.discover_ms", "ms"),
		lo("discovery.candidates", "count"),

		lo("core.augment_ms", "ms"),
		lo("core.self_ms", "ms"),
		lo("core.prefilter_ms", "ms"),
		lo("core.candidates_after_prefilter", "count"),

		lo("coreset.ms", "ms"),
		lo("coreset.rows_out", "count"),

		lo("join.ms", "ms"),
		lo("join.impute_ms", "ms"),
		lo("join.materialize_ms", "ms"),
		hi("join.rows_matched", "count"),
		hi("join.prep_cache_hit_ratio", "ratio"),

		lo("featsel.select_ms", "ms"),
		lo("featsel.rep_ms", "ms"),
		lo("featsel.sweep_ms", "ms"),
		lo("featsel.features_offered", "count"),
		lo("featsel.features_kept", "count"),
		hi("featsel.reps_short_circuited", "count"),

		lo("ml.tree_fit_us_p50", "us"),
		lo("ml.trees_fit", "count"),
		hi("ml.splitcache_hit_ratio", "ratio"),
		lo("ml.forest_fit_probe_ms", "ms"),

		lo("eval.evaluate_ms", "ms"),
		lo("eval.subset_score_us_p50", "us"),
		lo("eval.subset_scores", "count"),

		hi("parallel.speedup_x", "x"),

		lo("obs.trace_overhead_pct", "%"),
		lo("obs.events_per_run", "count"),

		lo("checkpoint.overhead_pct", "%"),
		lo("checkpoint.bytes_per_run", "bytes"),
		lo("checkpoint.saves", "count"),

		lo("runqueue.submit_ack_p50_ms", "ms"),
		lo("runqueue.submit_ack_p90_ms", "ms"),
		lo("runqueue.queue_wait_p50_ms", "ms"),
		lo("runqueue.exec_overhead_p50_ms", "ms"),
		lo("runqueue.service_overhead_pct", "%"),
		lo("runqueue.attempts_per_run", "count"),
		lo("runqueue.rejected", "count"),
		lo("runqueue.state_kb_per_run", "KB"),

		lo("lease.takeover_p50_s", "s"),
		lo("lease.takeover_max_s", "s"),
		hi("lease.takeovers", "count"),
		lo("lease.renewals", "count"),
		lo("lease.acquire_us", "us"),
		lo("lease.renew_us", "us"),

		lo("server.status_get_p50_ms", "ms"),
		lo("server.result_get_p50_ms", "ms"),
		lo("server.metrics_scrape_ms", "ms"),

		lo("atomicio.write_4k_us", "us"),

		lo("proc.alloc_mb_per_run", "MB"),
		lo("proc.build_s", "s"),
	}
	for _, p := range layerPackages {
		defs = append(defs, lo("code.lines."+p, "lines"))
	}
	defs = append(defs, lo("code.lines.total", "lines"))
	return defs
}

// metricValue is one measured number with its unit, as the result line and
// the result files carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name; fill turns it into the full,
// fixed list a result must carry.
type metricSet map[string]float64

// fill returns a value for every definition in defs. A per-layer metric the
// workload does not exercise is reported as 0.
func (m metricSet) fill(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

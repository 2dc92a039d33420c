package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/testenv"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"join.rows_matched": "arda_join_rows_matched",
		"select.rep":        "arda_select_rep",
		"workers.in_flight": "arda_workers_in_flight",
		"weird-name 1":      "arda_weird_name_1",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	var h obs.Histogram
	h.Observe(100) // bucket 7, upper bound 128ns = 1.28e-07s
	h.Observe(100)
	h.Observe(1 << 30) // bucket 31, upper 2^31ns ≈ 2.147s
	var b strings.Builder
	if err := WritePrometheus(&b, map[string]int64{"x.y": 3}, map[string]int64{"x.z": 4}, map[string]obs.HistogramStat{"join": h.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE arda_x_y counter\narda_x_y 3\n",
		"# TYPE arda_x_z gauge\narda_x_z 4\n",
		"# TYPE arda_join_seconds histogram\n",
		`arda_join_seconds_bucket{le="1.28e-07"} 2`,
		`arda_join_seconds_bucket{le="2.147483648"} 3`,
		`arda_join_seconds_bucket{le="+Inf"} 3`,
		"arda_join_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestServerEndToEnd runs a trace behind a live server: /metrics scrapes
// mid-run (gauges + histograms present), /debug/pprof/cmdline answers,
// /statusz renders the live tree, and /events streams history + live
// events, terminating at Finish.
func TestServerEndToEnd(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	stream := obs.NewStreamSink(0)
	tr := obs.New("augment", stream)
	srv, err := NewServer("127.0.0.1:0", tr, stream)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Some spans before the scrape, one left open.
	tr.Root().Child("prefilter", 0).End()
	join := tr.Root().Child("join", 0)
	join.Child("join.cand", 1).End()

	// Connect the event stream mid-run: history must replay.
	evResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}

	body := get(t, base+"/metrics")
	for _, want := range []string{
		"arda_runtime_goroutines",
		"arda_workers_in_flight",
		"arda_workers_max",
		"arda_prefilter_seconds_bucket",
		"arda_prefilter_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	get(t, base+"/debug/pprof/cmdline") // the profiles share the listener

	statusz := get(t, base+"/statusz")
	if !strings.Contains(statusz, "run: augment") || !strings.Contains(statusz, "prefilter") {
		t.Errorf("/statusz missing live tree:\n%s", statusz)
	}

	// Finish the run; the event stream must drain and close.
	join.End()
	tr.Counter("join.rows_matched").Add(42)
	tr.Finish()

	sc := bufio.NewScanner(evResp.Body)
	var events []obs.Event
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	evResp.Body.Close()
	if len(events) == 0 || events[len(events)-1].Type != obs.EventRun {
		t.Fatalf("event stream must end with the run event; got %d events", len(events))
	}
	if events[0].Name != "prefilter" {
		t.Fatalf("history replay missing: first event %+v", events[0])
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed server must refuse connections.
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(b)
}

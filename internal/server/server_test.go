package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/runqueue"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// startService boots a manager + server over fresh state and a synthetic
// corpus, returning the base URL and the pieces for direct inspection.
func startService(t *testing.T, cfg runqueue.Config) (string, *runqueue.Manager, *Server, string, string) {
	t.Helper()
	dataDir := t.TempDir()
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.15})
	write := func(tb *dataframe.Table) {
		t.Helper()
		if err := tb.WriteCSVFile(filepath.Join(dataDir, tb.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	write(corpus.Base)
	for _, tb := range corpus.Repo {
		write(tb)
	}
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	cfg.DataDir = dataDir
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	tr := obs.New("ardad-test")
	cfg.Trace = tr
	mgr, err := runqueue.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("localhost:0", mgr, tr)
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + srv.Addr(), mgr, srv, corpus.Base.Name(), corpus.Target
}

// postJSON submits a body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// waitHTTPTerminal polls GET /runs/{id} until the run reaches a terminal
// state.
func waitHTTPTerminal(t *testing.T, base, id string, timeout time.Duration) runqueue.Record {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var rec runqueue.Record
		if resp := getJSON(t, base+"/runs/"+id, &rec); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /runs/%s = %d", id, resp.StatusCode)
		}
		if rec.State.Terminal() {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s", id, rec.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServiceEndToEnd(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{})

	// Health before any run.
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Submit a run over HTTP.
	var rec runqueue.Record
	resp := postJSON(t, base+"/runs", runqueue.Spec{Base: baseTable, Target: target, Size: 128, KeepTable: true}, &rec)
	if resp.StatusCode != http.StatusAccepted || rec.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, rec)
	}
	if loc := resp.Header.Get("Location"); loc != "/runs/"+rec.ID {
		t.Fatalf("Location = %q", loc)
	}

	// A malformed spec is a 400 with an error body.
	var apiErr map[string]string
	if resp := postJSON(t, base+"/runs", map[string]any{"target": target}, &apiErr); resp.StatusCode != http.StatusBadRequest || apiErr["error"] == "" {
		t.Fatalf("bad submit = %d %v", resp.StatusCode, apiErr)
	}
	// Unknown fields are rejected, catching client typos.
	if resp := postJSON(t, base+"/runs", map[string]any{"base": baseTable, "target": target, "siize": 9}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo submit = %d, want 400", resp.StatusCode)
	}
	// So is a selector the registry does not hold, or a coreset strategy
	// this version does not have; the error lists the valid names.
	for _, removed := range []struct{ field, value, valid string }{
		{"selector", "lasso", "random forest"},
		{"coreset", "sketch", "uniform, leverage"},
	} {
		apiErr = nil
		body := map[string]any{"base": baseTable, "target": target, removed.field: removed.value}
		if resp := postJSON(t, base+"/runs", body, &apiErr); resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr["error"], removed.valid) {
			t.Fatalf("submit with %s %q = %d %v, want 400 listing %s", removed.field, removed.value, resp.StatusCode, apiErr, removed.valid)
		}
	}
	// So are resource budgets: a spec has none.
	if resp := postJSON(t, base+"/runs", map[string]any{"base": baseTable, "target": target, "max_candidate_bytes": 1 << 20}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("budget submit = %d, want 400", resp.StatusCode)
	}

	final := waitHTTPTerminal(t, base, rec.ID, 2*time.Minute)
	if final.State != runqueue.StateCompleted {
		t.Fatalf("run finished %s (%s)", final.State, final.Error)
	}

	// Result endpoint serves the deterministic summary.
	var res runqueue.RunResult
	if resp := getJSON(t, base+"/runs/"+rec.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	if res.TableDigest == "" || res.FinalScore == 0 {
		t.Fatalf("result carries no scores: %+v", res)
	}

	// The kept table is downloadable CSV.
	tresp, err := http.Get(base + "/runs/" + rec.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	tableCSV, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || !bytes.Contains(tableCSV, []byte(",")) {
		t.Fatalf("table = %d (%d bytes)", tresp.StatusCode, len(tableCSV))
	}

	// The event stream replays the finished run as NDJSON.
	eresp, err := http.Get(base + "/runs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event stream line %d is not JSON: %v", events+1, err)
		}
		events++
	}
	eresp.Body.Close()
	if events == 0 {
		t.Fatal("event stream empty for a completed run")
	}

	// /runs lists the run; /statusz and /metrics render.
	var list []runqueue.Record
	getJSON(t, base+"/runs", &list)
	if len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("list = %+v", list)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"arda_queue_admitted", "arda_queue_completed", "arda_queue_wait"} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, mbody)
		}
	}
	sresp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(sbody), rec.ID) {
		t.Fatalf("/statusz missing run:\n%s", sbody)
	}

	// Unknown runs 404 everywhere.
	if resp := getJSON(t, base+"/runs/r424242", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run = %d", resp.StatusCode)
	}

	if err := mgr.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRefusesRemovedFields: a submission that sets a removed field is
// a 400 naming it, and nothing is queued — the join plan and its feature
// budget (the screen stage is the one plan), two-hop discovery and kNN
// imputation. A spec asking for any of them must not run without it.
func TestServiceRefusesRemovedFields(t *testing.T) {
	defer testenv.NoGoroutineLeak(t)()
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{})
	for _, knob := range []struct {
		name  string
		value any
	}{{"plan", "table"}, {"plan", "budget"}, {"budget", 48}, {"transitive", true}, {"knn_impute", 3}} {
		t.Run(fmt.Sprintf("%s=%v", knob.name, knob.value), func(t *testing.T) {
			var apiErr map[string]string
			body := map[string]any{"base": baseTable, "target": target, knob.name: knob.value}
			if resp := postJSON(t, base+"/runs", body, &apiErr); resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr["error"], "sets "+knob.name) {
				t.Errorf("submit = %d %v, want 400 naming %s", resp.StatusCode, apiErr, knob.name)
			}
		})
	}
	if a := mgr.Accounting(); a.Admitted != 0 {
		t.Fatalf("refused submissions admitted %d runs", a.Admitted)
	}
	if err := mgr.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(0); err != nil {
		t.Fatal(err)
	}
}

func TestServiceQueuePressureAndCancel(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	inj := faults.New(1, faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 80 * time.Millisecond})
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{QueueCap: 1, Concurrency: 1, Injector: inj})
	spec := runqueue.Spec{Base: baseTable, Target: target, Size: 128}

	var first, second runqueue.Record
	if resp := postJSON(t, base+"/runs", spec, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	// Wait for the first run to occupy the execution slot.
	deadline := time.Now().Add(time.Minute)
	for {
		var rec runqueue.Record
		getJSON(t, base+"/runs/"+first.ID, &rec)
		if rec.State == runqueue.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first run never started (%s)", rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := postJSON(t, base+"/runs", spec, &second); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	// Queue full → 429 with Retry-After.
	resp := postJSON(t, base+"/runs", spec, nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow submit = %d (Retry-After %q), want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Cancel both over HTTP.
	for _, id := range []string{second.ID, first.ID} {
		req, err := http.NewRequest(http.MethodDelete, base+"/runs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s = %d", id, dresp.StatusCode)
		}
	}
	if rec := waitHTTPTerminal(t, base, first.ID, time.Minute); rec.State != runqueue.StateCanceled {
		t.Fatalf("first run finished %s, want canceled", rec.State)
	}
	if rec := waitHTTPTerminal(t, base, second.ID, time.Minute); rec.State != runqueue.StateCanceled {
		t.Fatalf("second run finished %s, want canceled", rec.State)
	}

	if err := mgr.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDrainGate is the drain acceptance gate at the HTTP layer: under
// sustained submissions, a drain flips new submits to 503 + Retry-After,
// in-flight runs finish or checkpoint within the deadline, and no goroutine
// leaks.
func TestServiceDrainGate(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	inj := faults.New(1, faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: 60 * time.Millisecond})
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{QueueCap: 8, Concurrency: 2, Injector: inj})
	spec := runqueue.Spec{Base: baseTable, Target: target, Size: 128}

	// Sustained submissions: a background loop keeps submitting until told
	// to stop, counting each response class.
	stop := make(chan struct{})
	done := make(chan map[int]int)
	go func() {
		codes := map[int]int{}
		for {
			select {
			case <-stop:
				done <- codes
				return
			default:
			}
			raw, _ := json.Marshal(spec)
			resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(raw))
			if err != nil {
				codes[-1]++
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[resp.StatusCode]++
				if resp.StatusCode == http.StatusServiceUnavailable {
					if resp.Header.Get("Retry-After") == "" {
						codes[-2]++
					}
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Let some runs get in flight, then drain with a short deadline so
	// stragglers are preempted and handed off.
	time.Sleep(300 * time.Millisecond)
	if err := mgr.Drain(100 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Post-drain, submissions must be rejected 503 — sample a few.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, base+"/runs", spec, nil)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("post-drain submit = %d (Retry-After %q), want 503", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	close(stop)
	codes := <-done
	if codes[-1] > 0 {
		t.Fatalf("submitter saw %d transport errors", codes[-1])
	}
	if codes[-2] > 0 {
		t.Fatalf("%d draining rejections lacked Retry-After", codes[-2])
	}

	// Nothing is executing after Drain returned; every admitted run is
	// accounted for in exactly one state.
	a := mgr.Accounting()
	if a.Running != 0 {
		t.Fatalf("%d runs still running after drain", a.Running)
	}
	in := a.Admitted + a.Takeovers
	out := a.Completed + a.Failed + a.Canceled + a.Queued + a.Running + a.Lost
	if in != out {
		t.Fatalf("accounting violated after drain: %+v", a)
	}
	if int64(codes[http.StatusAccepted]) != a.Admitted {
		t.Fatalf("client saw %d accepts, queue admitted %d", codes[http.StatusAccepted], a.Admitted)
	}

	if err := mgr.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(0); err != nil {
		t.Fatal(err)
	}
}

// readEvents GETs an NDJSON event endpoint and returns its non-empty lines
// once the server ends the response.
func readEvents(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET %s = %d %q, want 200 NDJSON", url, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				lines = append(lines, string(line))
			}
		}
	}()
	select {
	case <-finished:
		// The stream closed when the run's trace finished.
	case <-time.After(2 * time.Minute):
		t.Fatalf("event stream %s never terminated", url)
	}
	return lines
}

// TestServiceLiveEventStream subscribes to /runs/{id}/events the moment the
// run reads running and verifies the GET is answered from the live stream
// (never a 404), that the stream delivers events and terminates when the run
// finishes, and that the same GET after completion, served from the
// published trace, returns the same sequence.
func TestServiceLiveEventStream(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{})

	var rec runqueue.Record
	if resp := postJSON(t, base+"/runs", runqueue.Spec{Base: baseTable, Target: target, Size: 128}, &rec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	// GET the events as soon as the record reads running: the run's live
	// stream is created in the same critical section as that transition, so
	// the GET subscribes to it (readEvents fails on anything but a 200).
	deadline := time.Now().Add(time.Minute)
	for {
		r, err := mgr.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.State == runqueue.StateRunning {
			break
		}
		if r.State.Terminal() {
			t.Fatalf("run finished %s before it was seen running", r.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	live := readEvents(t, base+"/runs/"+rec.ID+"/events")
	if len(live) == 0 {
		t.Fatal("live stream delivered no events")
	}
	if rec := waitHTTPTerminal(t, base, rec.ID, time.Minute); rec.State != runqueue.StateCompleted {
		t.Fatalf("run finished %s (%s)", rec.State, rec.Error)
	}
	// The finished run keeps no stream: the same endpoint now serves its
	// published trace.ndjson, which must hold the sequence the live
	// subscriber saw, line for line.
	if stream, _, err := mgr.Stream(rec.ID); err != nil || stream != nil {
		t.Fatalf("Stream of the finished run: live stream kept %v, err %v", stream != nil, err)
	}
	late := readEvents(t, base+"/runs/"+rec.ID+"/events")
	if len(late) != len(live) {
		t.Fatalf("GET after completion served %d events, the live subscriber saw %d", len(late), len(live))
	}
	for i := range live {
		if late[i] != live[i] {
			t.Fatalf("event %d differs: live %s, after completion %s", i, live[i], late[i])
		}
	}
	if !strings.Contains(live[len(live)-1], `"type":"run"`) {
		t.Fatalf("event sequence ends with %s, want the run event", live[len(live)-1])
	}

	if err := mgr.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(0); err != nil {
		t.Fatal(err)
	}
}

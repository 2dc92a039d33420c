//go:build soak

package server

import (
	"bytes"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/runqueue"
)

// TestMemorySoak drives 1,000 fast runs through one daemon (a manager and
// its HTTP server, as cmd/ardad wires them) and holds its live heap flat:
// from run 100 to run 1,000 it may grow at most 4 KB per finished run, what
// a terminal Record costs. Every 100 runs it logs the live heap and VmHWM.
// Each run is submitted, polled to completion and its events read back over
// HTTP. About five minutes; run it with `make memory-soak` (build tag soak),
// never as part of `go test ./...`.
func TestMemorySoak(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	const runs, warm, perRun = 1000, 100, 4 << 10
	// The manager's log lines would otherwise go to t.Logf, which the test
	// holds in memory.
	base, mgr, srv, baseTable, target := startService(t, runqueue.Config{Logf: func(string, ...any) {}})
	defer srv.Close(0)
	defer mgr.Close(time.Minute)
	var atWarm uint64
	start := time.Now()
	for i := 1; i <= runs; i++ {
		var rec runqueue.Record
		spec := runqueue.Spec{Base: baseTable, Target: target, Size: 128, Seed: int64(1 + i%8)}
		if resp := postJSON(t, base+"/runs", spec, &rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("run %d: submit = %d", i, resp.StatusCode)
		}
		if final := waitHTTPTerminal(t, base, rec.ID, time.Minute); final.State != runqueue.StateCompleted {
			t.Fatalf("run %d finished %s (%s)", i, final.State, final.Error)
		}
		if events := readEvents(t, base+"/runs/"+rec.ID+"/events"); len(events) == 0 {
			t.Fatalf("run %d: GET events served nothing", i)
		}
		if i%100 != 0 {
			continue
		}
		heap := soakLiveHeap()
		if i == warm {
			atWarm = heap
		}
		t.Logf("run %4d  live heap %6.2f MB  VmHWM %s  %s", i, float64(heap)/(1<<20), vmHWM(), time.Since(start).Round(time.Second))
	}
	grown := int64(soakLiveHeap()) - int64(atWarm)
	t.Logf("live heap %+d bytes from run %d to run %d: %+d per run (bound %d)",
		grown, warm, runs, grown/(runs-warm), perRun)
	if grown > perRun*(runs-warm) {
		t.Fatalf("live heap grew %d bytes per finished run, want ≤ %d", grown/(runs-warm), perRun)
	}
}

// soakLiveHeap returns the bytes still reachable after two collections.
func soakLiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// vmHWM returns the process's peak resident set from /proc/self/status, or
// "n/a" where there is none.
func vmHWM() string {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			return string(bytes.TrimSpace(v))
		}
	}
	return "n/a"
}

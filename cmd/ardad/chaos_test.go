package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/checkpoint"
	"github.com/arda-ml/arda/internal/lease"
	"github.com/arda-ml/arda/internal/runqueue"
)

// chaosLeaseTTL is deliberately short so the takeover path, not the TTL,
// dominates the test's wall clock. Same-host adoption is pid-liveness based
// and therefore faster still.
const chaosLeaseTTL = 1500 * time.Millisecond

// runningOwners scans the shared state directory and returns, for every
// non-terminal run that is currently executing and has saved a checkpoint
// shard, the PID recorded in its live lease. This is the chaos driver's
// targeting data: it lets the test SIGKILL specifically a daemon that owns
// in-flight work, guaranteeing the takeover path is exercised rather than
// hoping a random kill lands well, and the adopter resumes from the shard
// rather than starting over (TestCrashRecoveryBitIdentical kills on the
// same signal).
func runningOwners(t *testing.T, state string) map[string]int {
	t.Helper()
	owners := map[string]int{}
	entries, err := os.ReadDir(filepath.Join(state, "runs"))
	if err != nil {
		return owners
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(state, "runs", e.Name(), "run.json"))
		if err != nil {
			continue
		}
		var rec runqueue.Record
		if json.Unmarshal(raw, &rec) != nil || rec.State != runqueue.StateRunning {
			continue
		}
		man, err := os.ReadFile(filepath.Join(state, "checkpoints", e.Name(), checkpoint.ManifestName))
		if err != nil || !bytes.Contains(man, []byte(".shard")) {
			continue
		}
		info, err := lease.Read(filepath.Join(state, "runs", e.Name(), lease.FileName))
		if err != nil {
			continue
		}
		owners[rec.ID] = info.PID
	}
	return owners
}

// checkStatuszInvariant scrapes one daemon's /statusz and asserts the
// extended accounting equation: every run this process ever took custody of
// (admitted or adopted) is in exactly one state or was
// fenced away to a new owner.
func checkStatuszInvariant(t *testing.T, d *daemon) {
	t.Helper()
	resp, err := http.Get(d.base + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	var adm, req, tko, cpl, fld, cnc, lst, qd, rn int64
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "admitted "):
			if _, err := fmt.Sscanf(line, "admitted %d requeued %d takeovers %d completed %d failed %d canceled %d lost %d",
				&adm, &req, &tko, &cpl, &fld, &cnc, &lst); err != nil {
				t.Fatalf("parsing statusz %q: %v", line, err)
			}
			seen++
		case strings.HasPrefix(line, "live: "):
			if _, err := fmt.Sscanf(line, "live: %d queued, %d running", &qd, &rn); err != nil {
				t.Fatalf("parsing statusz %q: %v", line, err)
			}
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("statusz missing accounting lines:\n%s", body)
	}
	if adm+req+tko != cpl+fld+cnc+qd+rn+lst {
		t.Errorf("accounting invariant violated on %s:\n%s", d.base, body)
	}
}

// TestMultiDaemonChaosExactlyOnce is the multi-process chaos gate: three
// ardad processes share one state directory while three tenants submit runs;
// a kill driver repeatedly SIGKILLs whichever daemon currently owns running
// work and restarts it. Every run must complete exactly once — the fenced
// completion log line appears at most once across every incarnation's stderr
// — with results bit-identical to an uninterrupted single daemon's, at both
// ends of the worker-count range.
func TestMultiDaemonChaosExactlyOnce(t *testing.T) {
	tmp := t.TempDir()
	bin := buildArdad(t, tmp)
	data, base, target := writeCorpus(t, tmp)

	tenants := []string{"acme", "globex", "initech"}
	var specs []runqueue.Spec
	for i, tn := range tenants {
		specs = append(specs,
			runqueue.Spec{Base: base, Target: target, Size: 640, Seed: int64(7 + 2*i), Tenant: tn},
			runqueue.Spec{Base: base, Target: target, Size: 640, Seed: int64(8 + 2*i), Tenant: tn, Coreset: "leverage"},
		)
	}

	// Reference: one uninterrupted daemon completes every spec.
	ref := startDaemon(t, bin, filepath.Join(tmp, "state-ref"), data, 0)
	var refIDs []string
	for _, s := range specs {
		refIDs = append(refIDs, ref.submit(t, s))
	}
	want := ref.waitCompleted(t, refIDs, 4*time.Minute)
	ref.stop(t)

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			state := filepath.Join(tmp, fmt.Sprintf("state-w%d", workers))
			flags := []string{"-concurrency", "1", "-lease-ttl", chaosLeaseTTL.String()}
			start := func() *daemon { return startDaemon(t, bin, state, data, workers, flags...) }

			daemons := make([]*daemon, 3)
			for i := range daemons {
				daemons[i] = start()
			}
			// Every incarnation's stderr matters for the exactly-once count,
			// including the ones we SIGKILL along the way.
			var deadLogs []string

			byPID := func(pid int) int {
				for i, d := range daemons {
					if d.cmd.Process != nil && d.cmd.Process.Pid == pid {
						return i
					}
				}
				return -1
			}

			var ids []string
			for i, s := range specs {
				ids = append(ids, daemons[i%len(daemons)].submit(t, s))
			}

			// Kill driver: three rounds of "find a daemon that owns running
			// work, SIGKILL it, let the survivors adopt, restart it". Stops
			// early if the fleet finishes everything first.
			allLogs := func() []string {
				out := append([]string(nil), deadLogs...)
				for _, d := range daemons {
					out = append(out, d.log())
				}
				return out
			}
			completedOnDisk := func() int {
				n := 0
				for _, id := range ids {
					raw, err := os.ReadFile(filepath.Join(state, "runs", id, "run.json"))
					if err != nil {
						continue
					}
					var rec runqueue.Record
					if json.Unmarshal(raw, &rec) == nil && rec.State == runqueue.StateCompleted {
						n++
					}
				}
				return n
			}
			kills := 0
			killStop := time.Now().Add(2 * time.Minute)
			for kills < 3 && completedOnDisk() < len(ids) {
				if time.Now().After(killStop) {
					t.Fatalf("kill driver found no running run to target after %d kills\nlogs:\n%s",
						kills, strings.Join(allLogs(), "\n---\n"))
				}
				victim := -1
				for _, pid := range runningOwners(t, state) {
					if i := byPID(pid); i >= 0 {
						victim = i
						break
					}
				}
				if victim < 0 {
					time.Sleep(25 * time.Millisecond)
					continue
				}
				d := daemons[victim]
				if err := d.cmd.Process.Kill(); err != nil {
					t.Fatalf("SIGKILL: %v", err)
				}
				_ = d.cmd.Wait() // expected non-zero: SIGKILLed
				deadLogs = append(deadLogs, d.log())
				kills++
				// Give the survivors a reap interval (TTL/2) to adopt the
				// orphans before the next incarnation joins the fleet.
				time.Sleep(chaosLeaseTTL)
				daemons[victim] = start()
			}
			if kills == 0 {
				t.Fatalf("fleet finished before any kill landed; nothing was proven")
			}

			got := daemons[0].waitCompleted(t, ids, 5*time.Minute)
			for _, d := range daemons {
				checkStatuszInvariant(t, d)
			}
			for _, d := range daemons {
				d.stop(t)
			}

			logs := allLogs()
			joined := strings.Join(logs, "\n---\n")

			// Exactly-once: the "completed <id>:" line is logged only after
			// the fenced terminal persist succeeds, so a duplicate across any
			// two incarnations would mean two owners both finished one run.
			for _, id := range ids {
				n := 0
				for _, lg := range logs {
					n += strings.Count(lg, "completed "+id+":")
				}
				if n > 1 {
					t.Errorf("run %s completed %d times across the fleet (want exactly once)\nlogs:\n%s", id, n, joined)
				}
			}
			// The driver only ever killed owners of running work, so at
			// least one adoption must have happened.
			if !strings.Contains(joined, "takeover r") {
				t.Errorf("no takeover logged despite %d targeted kills\nlogs:\n%s", kills, joined)
			}

			// Bit-identity with the uninterrupted reference, per spec.
			for i, id := range ids {
				w, g := want[refIDs[i]], got[id]
				if w == nil || g == nil {
					t.Fatalf("missing result for spec %d: want %v got %v", i, w, g)
				}
				if g.TableDigest != w.TableDigest {
					t.Errorf("run %s table digest = %s, want %s (not bit-identical under chaos)", id, g.TableDigest, w.TableDigest)
				}
				if g.BaseScore != w.BaseScore || g.FinalScore != w.FinalScore {
					t.Errorf("run %s scores = (%v, %v), want (%v, %v)", id, g.BaseScore, g.FinalScore, w.BaseScore, w.FinalScore)
				}
			}

			// Every tenant's lane saw work: the records carry their lanes.
			seen := map[string]int{}
			for _, id := range ids {
				raw, err := os.ReadFile(filepath.Join(state, "runs", id, "run.json"))
				if err != nil {
					t.Fatalf("reading final record %s: %v", id, err)
				}
				var rec runqueue.Record
				if err := json.Unmarshal(raw, &rec); err != nil {
					t.Fatalf("decoding final record %s: %v", id, err)
				}
				seen[rec.Tenant]++
			}
			var lanes []string
			for tn := range seen {
				lanes = append(lanes, tn)
			}
			sort.Strings(lanes)
			if fmt.Sprint(lanes) != fmt.Sprint(tenants) {
				t.Errorf("tenant lanes on disk = %v, want %v", lanes, tenants)
			}
		})
	}
}

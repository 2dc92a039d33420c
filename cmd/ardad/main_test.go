package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/runqueue"
	"github.com/arda-ml/arda/internal/synth"
)

// buildArdad compiles the daemon into dir and returns the binary path.
func buildArdad(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ardad")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ardad: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus materializes a synthetic corpus as CSVs and returns the data
// directory plus the base table name and target column.
func writeCorpus(t *testing.T, dir string) (string, string, string) {
	t.Helper()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	corpus := synth.Poverty(synth.Config{Seed: 61, Scale: 0.3})
	if err := corpus.Base.WriteCSVFile(filepath.Join(data, corpus.Base.Name()+".csv")); err != nil {
		t.Fatal(err)
	}
	for _, tab := range corpus.Repo {
		if err := tab.WriteCSVFile(filepath.Join(data, tab.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	return data, corpus.Base.Name(), corpus.Target
}

// daemon is one running ardad process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	mu     *sync.Mutex
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemon launches ardad on an ephemeral port and waits for its listen
// address to appear on stderr. Extra flags are appended after the defaults,
// so they may override -concurrency and friends.
func startDaemon(t *testing.T, bin, state, data string, workers int, extra ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0", "-state", state, "-dir", data,
		"-concurrency", "2", "-workers", fmt.Sprint(workers), "-v"}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, mu: &sync.Mutex{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr := line[i+len("serving on http://"):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never reported its listen address\nstderr:\n%s", d.log())
	}
	return d
}

// stop drains the daemon with SIGTERM and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 after SIGTERM: %v\nstderr:\n%s", err, d.log())
	}
}

// submit posts one spec and returns the accepted run's ID.
func (d *daemon) submit(t *testing.T, spec runqueue.Spec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(d.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submitting: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var rec runqueue.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return rec.ID
}

// get fetches one run record.
func (d *daemon) get(t *testing.T, id string) runqueue.Record {
	t.Helper()
	resp, err := http.Get(d.base + "/runs/" + id)
	if err != nil {
		t.Fatalf("getting %s: %v", id, err)
	}
	defer resp.Body.Close()
	var rec runqueue.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decoding %s: %v", id, err)
	}
	return rec
}

// waitCompleted polls until every listed run is completed, failing fast on a
// failed or canceled run.
func (d *daemon) waitCompleted(t *testing.T, ids []string, deadline time.Duration) map[string]*runqueue.RunResult {
	t.Helper()
	out := map[string]*runqueue.RunResult{}
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		done := 0
		for _, id := range ids {
			rec := d.get(t, id)
			switch rec.State {
			case runqueue.StateCompleted:
				out[id] = rec.Result
				done++
			case runqueue.StateFailed, runqueue.StateCanceled:
				t.Fatalf("run %s ended %s: %s\nstderr:\n%s", id, rec.State, rec.Error, d.log())
			}
		}
		if done == len(ids) {
			return out
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("runs %v not completed within %s\nstderr:\n%s", ids, deadline, d.log())
	return nil
}

// TestCrashRecoveryBitIdentical is the crash gate: a daemon killed with
// SIGKILL while two runs are executing must, on restart over the same state
// directory, requeue and finish both runs with results bit-identical to an
// uninterrupted daemon's — augmented-table digest, scores, and kept columns
// all equal — at both ends of the worker-count range.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	tmp := t.TempDir()
	bin := buildArdad(t, tmp)
	data, base, target := writeCorpus(t, tmp)
	specs := []runqueue.Spec{
		{Base: base, Target: target, Size: 768, Seed: 7},
		{Base: base, Target: target, Size: 768, Seed: 11, Coreset: "leverage"},
	}

	// Reference: an uninterrupted daemon completes both runs.
	ref := startDaemon(t, bin, filepath.Join(tmp, "state-ref"), data, 0)
	var refIDs []string
	for _, s := range specs {
		refIDs = append(refIDs, ref.submit(t, s))
	}
	want := ref.waitCompleted(t, refIDs, 2*time.Minute)
	ref.stop(t)

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			state := filepath.Join(tmp, fmt.Sprintf("state-w%d", workers))

			// Start, submit both runs, and SIGKILL once both are executing.
			d := startDaemon(t, bin, state, data, workers)
			var ids []string
			for _, s := range specs {
				ids = append(ids, d.submit(t, s))
			}
			killStop := time.Now().Add(time.Minute)
			for {
				running := 0
				for _, id := range ids {
					if d.get(t, id).State == runqueue.StateRunning {
						running++
					}
				}
				if running == len(ids) {
					break
				}
				if time.Now().After(killStop) {
					t.Fatalf("both runs never in flight together\nstderr:\n%s", d.log())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := d.cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			_ = d.cmd.Wait() // expected non-zero: the process was SIGKILLed

			// Restart over the same state directory: recovery must requeue
			// the interrupted runs under their original IDs and finish them.
			d2 := startDaemon(t, bin, state, data, workers)
			got := d2.waitCompleted(t, ids, 3*time.Minute)
			d2.stop(t)

			for i, id := range ids {
				w, g := want[refIDs[i]], got[id]
				if w == nil || g == nil {
					t.Fatalf("missing result: want %v got %v", w, g)
				}
				if g.TableDigest != w.TableDigest {
					t.Errorf("run %s table digest = %s, want %s (not bit-identical after crash)", id, g.TableDigest, w.TableDigest)
				}
				if g.BaseScore != w.BaseScore || g.FinalScore != w.FinalScore {
					t.Errorf("run %s scores = (%v, %v), want (%v, %v)", id, g.BaseScore, g.FinalScore, w.BaseScore, w.FinalScore)
				}
				if !reflect.DeepEqual(g.KeptColumns, w.KeptColumns) {
					t.Errorf("run %s kept columns diverged:\n got %v\nwant %v", id, g.KeptColumns, w.KeptColumns)
				}
				if !reflect.DeepEqual(g.KeptTables, w.KeptTables) {
					t.Errorf("run %s kept tables diverged:\n got %v\nwant %v", id, g.KeptTables, w.KeptTables)
				}
			}
		})
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	arda "github.com/arda-ml/arda"
)

const (
	serviceClients = 2                     // closed-loop callers, one keep-alive connection each per daemon
	pollInterval   = 10 * time.Millisecond // sleep between status polls
	requestTimeout = 5 * time.Second
	specSeeds      = 8   // run i is submitted with seed 1 + i%specSeeds
	serviceCoreset = 192 // spec "size"
	runDeadline    = 90 * time.Second
	failoverKills  = 4  // SIGKILLs, evenly spaced inside the timed phase
	rssAfterRuns   = 64 // peak_rss_mb is read when this many timed runs have completed
	// serviceSetupRepeats is how many set-ups setup_s is the median of; a
	// service set-up takes a tenth of a second, so it can afford more.
	serviceSetupRepeats = 5
	// takeoverWait is how long a kill may go without a peer adopting a run
	// before it is taken for a miss: the lease TTL, a reaper period, and slack.
	takeoverWait = 6 * time.Second
)

// serviceWorkload is a workload driven over HTTP against ardad processes.
type serviceWorkload struct {
	daemons int
	// flags are passed to every daemon besides -addr, -state and -dir; -v is
	// there so that each fenced completion leaves a log line to count.
	flags []string
	kills int
}

var serviceWorkloads = map[string]serviceWorkload{
	"service-steady":   {daemons: 1, flags: []string{"-v"}},
	"service-failover": {daemons: 3, flags: []string{"-concurrency", "1", "-workers", "1", "-lease-ttl", "2s", "-v"}, kills: failoverKills},
}

// runSpec is the JSON body of POST /runs (a subset of runqueue.Spec).
type runSpec struct {
	Base     string `json:"base"`
	Target   string `json:"target"`
	Size     int    `json:"size"`
	Selector string `json:"selector"`
	Seed     int64  `json:"seed"`
}

// runResult and runRecord are the parts of the service's JSON answers the
// benchmark reads.
type runResult struct {
	BaseScore   float64  `json:"base_score"`
	FinalScore  float64  `json:"final_score"`
	KeptTables  []string `json:"kept_tables"`
	TableDigest string   `json:"table_digest"`
	ElapsedMS   int64    `json:"elapsed_ms"`
}

type runRecord struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at"`
	FinishedAt  time.Time  `json:"finished_at"`
	Takeovers   int        `json:"takeovers"`
	Result      *runResult `json:"result"`
}

func (r *runRecord) terminal() bool {
	return r.State == "completed" || r.State == "failed" || r.State == "canceled"
}

// daemonProc is one ardad process started by the benchmark.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	log    string // stderr file
	exited chan struct{}
	peakMB float64 // VmHWM at the moment freezePeakLocked read it; guarded by service.mu
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon's process group and waits until the daemon has
// been reaped; a zombie would still count as alive to its peers' lease checks.
func (d *daemonProc) kill() {
	syscall.Kill(-d.pid(), syscall.SIGKILL)
	<-d.exited
}

// stop drains the daemon with SIGTERM and falls back to SIGKILL.
func (d *daemonProc) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	syscall.Kill(d.pid(), syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.kill()
	}
}

// freeAddr finds a free loopback port by binding port 0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newHTTPClient returns a client that keeps at most one connection per
// daemon alive and gives every request requestTimeout.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// call performs one request and returns status, body and how long it took.
func call(c *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Since(t0), err
}

// service is the state of one service workload: the daemons, the corpus they
// serve, the in-process reference answers, and what the clients observed.
type service struct {
	h     *harness
	w     serviceWorkload
	bin   string
	state string
	c     *corpusOnDisk
	ctl   *http.Client // the driver's own connection: health, metrics, kills

	mu       sync.Mutex
	live     []*daemonProc
	all      []*daemonProc
	runs     []serviceRun
	acks     []float64 // ms
	statuses []float64 // ms, every status poll
	results  []float64 // ms
	rejected int
	takeover []float64 // s, SIGKILL → a peer's takeovers counter moved

	next atomic.Int64
	ref  map[int64]*pipelineRun // in-process answer per spec seed
}

// serviceRun is one run as a client saw it.
type serviceRun struct {
	ID       string
	SpecSeed int64
	Total    time.Duration // POST sent → result observed
	Rec      runRecord
	Res      runResult
}

// startDaemon launches one ardad over the shared state and corpus and waits
// for /healthz. It returns how long the daemon took to come up. The port is
// free when it is chosen, not when the daemon binds it, so a daemon that does
// not come up is tried again on another port.
func (s *service) startDaemon() (d *daemonProc, up time.Duration, err error) {
	for try := 0; try < 3; try++ {
		if d, up, err = s.launchDaemon(); err == nil {
			return d, up, nil
		}
	}
	return nil, 0, err
}

func (s *service) launchDaemon() (*daemonProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	n := len(s.all)
	s.mu.Unlock()
	logPath := filepath.Join(s.h.root, fmt.Sprintf("ardad-%d.log", n))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	args := append([]string{"-addr", addr, "-state", s.state, "-dir", s.c.Dir}, s.w.flags...)
	cmd := exec.Command(s.bin, args...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	s.mu.Lock()
	s.all = append(s.all, d)
	s.mu.Unlock()
	for time.Since(t0) < 10*time.Second {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("ardad exited during start-up, see %s", logPath)
		default:
		}
		if status, _, _, err := call(s.ctl, "GET", d.base+"/healthz", nil); err == nil && status == http.StatusOK {
			up := time.Since(t0)
			s.mu.Lock()
			s.live = append(s.live, d)
			s.mu.Unlock()
			return d, up, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("ardad did not answer /healthz within 10s, see %s", logPath)
}

// killAll SIGKILLs every daemon still running; it is the cleanup path.
func (s *service) killAll() {
	s.mu.Lock()
	all := append([]*daemonProc(nil), s.all...)
	s.live = nil
	s.mu.Unlock()
	for _, d := range all {
		d.kill()
	}
}

func (s *service) liveDaemons() []*daemonProc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*daemonProc(nil), s.live...)
}

func (s *service) dropLive(d *daemonProc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.live {
		if x == d {
			s.live = append(s.live[:i:i], s.live[i+1:]...)
			return
		}
	}
}

// pick returns the n-th live daemon, round-robin.
func (s *service) pick(n int) *daemonProc {
	live := s.liveDaemons()
	if len(live) == 0 {
		return nil
	}
	return live[n%len(live)]
}

// setup writes the corpus and starts the workload's daemons, `repeats` times
// over; all but the last set-up are torn down again.
func (s *service) setup(repeats int) ([]float64, error) {
	var durs []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			s.killAll()
			s.all = nil
			os.RemoveAll(s.state)
			os.RemoveAll(s.c.Dir)
		}
		c, d, err := writeCorpus(serviceCorpus, s.h.seed, filepath.Join(s.h.root, fmt.Sprintf("corpus-%d", i)))
		if err != nil {
			return nil, err
		}
		s.c = c
		s.state = filepath.Join(s.h.root, fmt.Sprintf("state-%d", i))
		for j := 0; j < s.w.daemons; j++ {
			_, up, err := s.startDaemon()
			if err != nil {
				return nil, err
			}
			d += up
		}
		durs = append(durs, d.Seconds())
	}
	s.h.shape = s.c.Shape
	return durs, nil
}

func (s *service) spec(i int64) runSpec {
	return runSpec{Base: s.c.Base, Target: s.c.Target, Size: serviceCoreset, Selector: string(arda.RandomForest), Seed: 1 + i%specSeeds}
}

// reference computes, in this process, the answer the service must give for
// every spec seed, and how long the same work takes without the service.
func (s *service) reference() error {
	s.ref = map[int64]*pipelineRun{}
	out := filepath.Join(s.h.root, "reference.csv")
	for seed := int64(1); seed <= specSeeds; seed++ {
		sel, err := arda.NewSelector(arda.RandomForest)
		if err != nil {
			return err
		}
		opts := arda.Options{Target: s.c.Target, CoresetSize: serviceCoreset, Selector: sel, Seed: seed}
		run, err := runPipeline(s.c, opts, out, nil, "")
		if err != nil {
			return fmt.Errorf("reference run seed %d: %w", seed, err)
		}
		s.ref[seed] = run
	}
	return nil
}

// oneRun drives one run through the service the way a tenant would: submit,
// poll until terminal (sleeping between polls), fetch the result.
func (s *service) oneRun(c *http.Client, i int64) {
	h := s.h
	spec := s.spec(i)
	body, _ := json.Marshal(spec)
	runID := fmt.Sprintf("i%d", i)
	root := h.rec.start(0, runID, "run")
	defer h.rec.end(root)
	start := time.Now()

	// Submit. A daemon that was just killed refuses the connection; the
	// client moves on to the next live one, and the lost time counts.
	var d *daemonProc
	var rec runRecord
	sp := h.rec.start(root, runID, "http.submit")
	for try := 0; rec.ID == ""; try++ {
		if time.Since(start) > runDeadline {
			h.rec.end(sp)
			h.fail("run %d: no daemon accepted the submit within %s", i, runDeadline)
			return
		}
		if d = s.pick(int(i) + try); d == nil {
			time.Sleep(pollInterval)
			continue
		}
		status, data, dur, err := call(c, "POST", d.base+"/runs", body)
		if err != nil {
			time.Sleep(pollInterval)
			continue
		}
		if status != http.StatusAccepted || json.Unmarshal(data, &rec) != nil || rec.ID == "" {
			h.rec.end(sp)
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			h.fail("run %d: submit answered %d: %s", i, status, strings.TrimSpace(string(data)))
			time.Sleep(50 * time.Millisecond)
			return
		}
		s.mu.Lock()
		s.acks = append(s.acks, millis(dur))
		s.mu.Unlock()
	}
	h.rec.end(sp)

	// Poll the daemon that accepted the run; if it is gone, any live peer
	// answers from the shared state directory.
	sp = h.rec.start(root, runID, "http.poll")
	for try := 0; ; {
		time.Sleep(pollInterval)
		if time.Since(start) > runDeadline {
			h.rec.end(sp)
			h.fail("run %d (%s): not terminal after %s (state %q)", i, rec.ID, runDeadline, rec.State)
			return
		}
		status, data, dur, err := call(c, "GET", d.base+"/runs/"+rec.ID, nil)
		if err != nil || status != http.StatusOK {
			try++
			if next := s.pick(int(i) + try); next != nil {
				d = next
			}
			continue
		}
		s.mu.Lock()
		s.statuses = append(s.statuses, millis(dur))
		s.mu.Unlock()
		var got runRecord
		if json.Unmarshal(data, &got) != nil {
			continue
		}
		rec = got
		if rec.terminal() {
			break
		}
	}
	h.rec.end(sp)
	if !rec.StartedAt.IsZero() && !rec.FinishedAt.IsZero() {
		h.rec.reported(sp, runID, []string{"runqueue.queued", "runqueue.running"},
			[]time.Duration{rec.StartedAt.Sub(rec.SubmittedAt), rec.FinishedAt.Sub(rec.StartedAt)})
	}
	if rec.State != "completed" {
		h.fail("run %d (%s): ended %s: %s", i, rec.ID, rec.State, rec.Error)
		return
	}

	sp = h.rec.start(root, runID, "http.result")
	var res runResult
	status, data, dur, err := call(c, "GET", d.base+"/runs/"+rec.ID+"/result", nil)
	h.rec.end(sp)
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &res) != nil {
		h.fail("run %d (%s): fetching result: status %d, %v", i, rec.ID, status, err)
		return
	}
	total := time.Since(start)

	want := s.ref[spec.Seed]
	if digest := fmt.Sprintf("%016x", want.Digest); res.TableDigest != digest {
		h.fail("run %d (%s): table_digest %s, in-process answer for seed %d is %s", i, rec.ID, res.TableDigest, spec.Seed, digest)
		return
	}
	s.mu.Lock()
	s.results = append(s.results, millis(dur))
	s.runs = append(s.runs, serviceRun{ID: rec.ID, SpecSeed: spec.Seed, Total: total, Rec: rec, Res: res})
	if len(s.runs) == rssAfterRuns {
		for _, d := range s.live {
			s.freezePeakLocked(d)
		}
	}
	s.mu.Unlock()
}

// freezePeakLocked records the daemon's peak memory, once. A daemon's memory
// grows with every run it has served, so the daemons that live through the
// workload are read when the rssAfterRuns-th run completes — a fixed amount
// of work — and not at the end, where a faster machine has served more runs.
// Daemons that are killed, started later, or never see that many runs are
// read at their end.
func (s *service) freezePeakLocked(d *daemonProc) {
	if d.peakMB == 0 {
		d.peakMB = peakRSSMB(d.pid())
	}
}

// load runs the closed loop: every client submits its next run only after
// its previous one has answered, until d has passed (and at least once).
func (s *service) load(d time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < serviceClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.h.recoverAsFailure("client")
			c := newHTTPClient()
			defer c.CloseIdleConnections()
			for first := true; first || time.Since(start) < d; first = false {
				s.h.count()
				s.oneRun(c, s.next.Add(1)-1)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

var promLine = regexp.MustCompile(`(?m)^(arda_[a-z_]+) (-?\d+)$`)

// scrape reads one daemon's /metrics into a name → value map.
func (s *service) scrape(d *daemonProc) (map[string]int64, time.Duration, error) {
	status, data, dur, err := call(s.ctl, "GET", d.base+"/metrics", nil)
	if err != nil {
		return nil, dur, err
	}
	if status != http.StatusOK {
		return nil, dur, fmt.Errorf("/metrics answered %d", status)
	}
	return parseProm(data), dur, nil
}

func parseProm(data []byte) map[string]int64 {
	out := map[string]int64{}
	for _, m := range promLine.FindAllSubmatch(data, -1) {
		v, _ := strconv.ParseInt(string(m[2]), 10, 64)
		out[string(m[1])] = v
	}
	return out
}

// failoverDriver SIGKILLs, at evenly spaced moments of the timed phase, a
// daemon that reports a running run, times how long a peer takes to adopt
// the orphan (its takeovers counter moves), and then restarts a daemon.
func (s *service) failoverDriver(d time.Duration, stop <-chan struct{}) {
	start := time.Now()
	for k := 1; k <= s.w.kills; k++ {
		at := d * time.Duration(k) / time.Duration(s.w.kills+1)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(at))):
		}
		if err := s.killAndRestart(k); err != nil {
			s.h.fail("failover %d: %v", k, err)
		}
	}
}

func (s *service) peerTakeovers(except *daemonProc) int64 {
	var sum int64
	for _, p := range s.liveDaemons() {
		if p == except {
			continue
		}
		if m, _, err := s.scrape(p); err == nil {
			sum += m["arda_lease_takeovers"]
		}
	}
	return sum
}

// killAndRestart performs the k-th failover. A victim whose run finishes in
// the instant before the signal lands leaves nothing to adopt; that is a
// miss, not a fault (a run that really stays orphaned fails its own client
// and the final check), so the daemon is restarted and another one killed.
func (s *service) killAndRestart(k int) error {
	for try := 0; try < 3; try++ {
		adopted, err := s.killOnce(fmt.Sprintf("kill-%d.%d", k, try))
		if err != nil || adopted {
			return err
		}
	}
	return errors.New("three kills in a row left nothing to adopt")
}

// The victim is always the most recently started daemon, once it reports a
// running run: the other daemons then live through the whole workload, which
// keeps their share of the work and their peak memory comparable between
// runs of the benchmark.
func (s *service) killOnce(runID string) (adopted bool, err error) {
	live := s.liveDaemons()
	victim := live[len(live)-1]
	for t0 := time.Now(); ; time.Sleep(pollInterval) {
		if m, _, err := s.scrape(victim); err == nil && m["arda_queue_running"] > 0 {
			break
		}
		if time.Since(t0) > 5*time.Second {
			return false, errors.New("the victim reported no running run within 5s")
		}
	}
	before := s.peerTakeovers(victim)
	s.mu.Lock()
	s.freezePeakLocked(victim)
	s.mu.Unlock()

	sp := s.h.rec.start(0, runID, "driver.kill")
	t0 := time.Now()
	victim.kill()
	s.dropLive(victim)
	for !adopted && time.Since(t0) < takeoverWait {
		time.Sleep(pollInterval)
		adopted = s.peerTakeovers(victim) > before
	}
	s.h.rec.end(sp)
	if adopted {
		s.mu.Lock()
		s.takeover = append(s.takeover, time.Since(t0).Seconds())
		s.mu.Unlock()
	}

	sp = s.h.rec.start(0, runID, "driver.restart")
	_, _, err = s.startDaemon()
	s.h.rec.end(sp)
	return adopted, err
}

var (
	statuszCounters = regexp.MustCompile(`admitted (\d+)\s+requeued (\d+)\s+takeovers (\d+)\s+completed (\d+)\s+failed (\d+)\s+canceled (\d+)\s+lost (\d+)`)
	statuszLive     = regexp.MustCompile(`live: (\d+) queued, (\d+) running`)
	statuszLeases   = regexp.MustCompile(`leases: (\d+) held, (\d+) renewals`)
	completedLine   = regexp.MustCompile(`(?m)^ardad: completed (\S+):`)
)

// accounting is the queue bookkeeping one daemon prints on /statusz.
type accounting struct {
	Admitted, Requeued, Takeovers, Completed, Failed, Canceled, Lost int64
	Queued, Running                                                  int64
	Renewals                                                         int64
}

// balanced is the invariant the queue promises at any quiescent point.
func (a accounting) balanced() bool {
	return a.Admitted+a.Requeued+a.Takeovers == a.Completed+a.Failed+a.Canceled+a.Queued+a.Running+a.Lost
}

func parseStatusz(body []byte) (accounting, error) {
	var a accounting
	c := statuszCounters.FindSubmatch(body)
	l := statuszLive.FindSubmatch(body)
	if c == nil || l == nil {
		return a, errors.New("statusz has no accounting lines")
	}
	n := func(b []byte) int64 { v, _ := strconv.ParseInt(string(b), 10, 64); return v }
	a.Admitted, a.Requeued, a.Takeovers, a.Completed = n(c[1]), n(c[2]), n(c[3]), n(c[4])
	a.Failed, a.Canceled, a.Lost = n(c[5]), n(c[6]), n(c[7])
	a.Queued, a.Running = n(l[1]), n(l[2])
	if r := statuszLeases.FindSubmatch(body); r != nil {
		a.Renewals = n(r[2])
	}
	return a, nil
}

// verify checks, once the load has stopped, that the service as a whole kept
// its promises: every run any daemon ever accepted is completed, and every
// live daemon's books balance. It returns every run in the shared state.
func (s *service) verify() []runRecord {
	h := s.h
	live := s.liveDaemons()
	if len(live) == 0 {
		h.fail("no daemon is alive at the end")
		return nil
	}

	// Every run in the shared state — acknowledged or not — must settle.
	var all []runRecord
	for t0 := time.Now(); ; time.Sleep(50 * time.Millisecond) {
		status, data, _, err := call(s.ctl, "GET", live[0].base+"/runs", nil)
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &all) != nil {
			h.fail("listing runs: status %d, %v", status, err)
			return nil
		}
		pending := 0
		for _, r := range all {
			if !r.terminal() {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Since(t0) > 30*time.Second {
			h.fail("%d runs are still not terminal 30s after the load stopped", pending)
			break
		}
	}
	for _, r := range all {
		if r.terminal() && r.State != "completed" {
			h.fail("run %s ended %s: %s", r.ID, r.State, r.Error)
		}
	}

	seen := map[string]bool{}
	for _, r := range s.runs {
		if seen[r.ID] {
			h.fail("run id %s was acknowledged twice", r.ID)
		}
		seen[r.ID] = true
	}

	// The books balance at any quiescent point; a daemon that has just
	// answered "completed" may still be retiring the run, so look again for a
	// moment before calling it a violation.
	for _, d := range live {
		var a accounting
		var err error
		for t0 := time.Now(); ; time.Sleep(pollInterval) {
			var status int
			var data []byte
			if status, data, _, err = call(s.ctl, "GET", d.base+"/statusz", nil); err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				a, err = parseStatusz(data)
			}
			if err == nil && !a.balanced() {
				err = fmt.Errorf("accounting invariant violated: %+v", a)
			}
			if err == nil || time.Since(t0) > 3*time.Second {
				break
			}
		}
		if err != nil {
			h.fail("statusz of %s: %v", d.base, err)
			continue
		}
		h.m["lease.renewals"] += float64(a.Renewals)
	}
	return all
}

// verifyExactlyOnce counts completions in the daemons' logs: each fenced
// completion logs one line, and across every incarnation of every daemon,
// the killed ones included, each completed run must have exactly one. It
// runs after the daemons have exited, when their logs are final.
func (s *service) verifyExactlyOnce(all []runRecord) {
	completions := map[string]int{}
	for _, d := range s.all {
		raw, err := os.ReadFile(d.log)
		if err != nil {
			s.h.fail("reading %s: %v", d.log, err)
			continue
		}
		for _, m := range completedLine.FindAllSubmatch(raw, -1) {
			completions[string(m[1])]++
		}
	}
	for _, r := range all {
		if n := completions[r.ID]; r.State == "completed" && n != 1 {
			s.h.fail("run %s was completed %d times", r.ID, n)
		}
	}
}

// runService measures one service workload.
func (h *harness) runService(w serviceWorkload) error {
	bin, build, err := h.buildDaemon()
	if err != nil {
		return err
	}
	h.m["proc.build_s"] = build.Seconds()
	s := &service{h: h, w: w, bin: bin, ctl: newHTTPClient()}
	h.onCleanup(s.killAll)

	repeats := serviceSetupRepeats
	if h.traced {
		repeats = 1
	}
	setups, err := s.setup(repeats)
	if err != nil {
		return err
	}
	h.m["setup_s"] = median(setups)
	h.samples["setup_s"] = len(setups)
	h.config["daemons"] = w.daemons
	h.config["daemon_flags"] = strings.Join(w.flags, " ")
	h.config["clients"] = serviceClients
	h.config["poll_interval_ms"] = millis(pollInterval)
	h.config["request_timeout_s"] = requestTimeout.Seconds()
	h.config["spec"] = s.spec(0)
	h.config["spec_seeds"] = specSeeds

	if err := s.reference(); err != nil {
		return err
	}

	// Warm-up: one run per client, untimed and unrecorded, so that every
	// daemon has served a request before the clock starts.
	rec := h.rec
	h.rec = nil
	s.load(0)
	h.rec = rec
	s.mu.Lock()
	s.runs, s.acks, s.statuses, s.results = nil, nil, nil, nil
	s.mu.Unlock()

	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		defer h.recoverAsFailure("failover driver")
		s.failoverDriver(h.seconds, stop)
	}()
	wall := s.load(h.seconds)
	close(stop)
	<-driverDone
	all := s.verify()

	// Memory of the processes that ran the pipeline: every incarnation of
	// every daemon.
	s.mu.Lock()
	for _, d := range s.live {
		s.freezePeakLocked(d)
	}
	for _, d := range s.all {
		h.m["peak_rss_mb"] = max(h.m["peak_rss_mb"], d.peakMB)
	}
	s.mu.Unlock()
	h.config["rss_after_runs"] = rssAfterRuns

	var totals, waits, execs, attempts []float64
	var q quality
	for _, r := range s.runs {
		totals = append(totals, r.Total.Seconds())
		waits = append(waits, millis(r.Rec.StartedAt.Sub(r.Rec.SubmittedAt)))
		execs = append(execs, millis(r.Rec.FinishedAt.Sub(r.Rec.StartedAt))-float64(r.Res.ElapsedMS))
		attempts = append(attempts, float64(1+r.Rec.Takeovers))
		q.add(s.c, r.SpecSeed, r.Res.BaseScore, r.Res.FinalScore, r.Res.KeptTables)
	}
	m := h.m
	m["run_p50_s"] = median(totals)
	h.samples["run_p50_s"] = len(totals)
	if percentileEligible(len(totals), 0.9) {
		m["run_p90_s"] = percentile(totals, 0.9)
	}
	m["throughput_runs_per_s"] = ratio(float64(len(totals)), wall.Seconds())
	q.into(m)

	m["runqueue.submit_ack_p50_ms"] = median(s.acks)
	if percentileEligible(len(s.acks), 0.9) {
		m["runqueue.submit_ack_p90_ms"] = percentile(s.acks, 0.9)
	}
	m["runqueue.queue_wait_p50_ms"] = median(waits)
	m["runqueue.exec_overhead_p50_ms"] = median(execs)
	m["runqueue.attempts_per_run"] = mean(attempts)
	m["runqueue.rejected"] = float64(s.rejected)
	m["runqueue.state_kb_per_run"] = ratio(float64(dirBytes(s.state))/1024, float64(len(s.runs)))
	m["server.status_get_p50_ms"] = median(s.statuses)
	h.samples["server.status_get_p50_ms"] = len(s.statuses)
	m["server.result_get_p50_ms"] = median(s.results)
	m["lease.takeovers"] = float64(len(s.takeover))
	m["lease.takeover_p50_s"] = median(s.takeover)
	m["lease.takeover_max_s"] = percentile(s.takeover, 1)
	if len(s.takeover) != w.kills {
		h.fail("%d of %d kills were followed by a takeover", len(s.takeover), w.kills)
	}

	// The same specs without the service, for the price of the service.
	var refTotal, refLoad, refDiscover, refAugment, refWrite []float64
	for _, r := range s.ref {
		refTotal = append(refTotal, r.Total.Seconds())
		refLoad = append(refLoad, millis(r.Load))
		refDiscover = append(refDiscover, millis(r.Discover))
		refAugment = append(refAugment, millis(r.Augment))
		refWrite = append(refWrite, millis(r.Write))
	}
	m["runqueue.service_overhead_pct"] = 100 * ratio(m["run_p50_s"]-median(refTotal), median(refTotal))
	m["dataframe.load_ms"] = median(refLoad)
	m["dataframe.load_mb_per_s"] = ratio(float64(s.c.Shape.CSVBytes)/1e6, median(refLoad)/1e3)
	m["discovery.discover_ms"] = median(refDiscover)
	m["core.augment_ms"] = median(refAugment)
	m["dataframe.write_ms"] = median(refWrite)

	if h.traced {
		var scrapes []float64
		for i := 0; i < 5; i++ {
			if _, dur, err := s.scrape(s.liveDaemons()[0]); err == nil {
				scrapes = append(scrapes, millis(dur))
			}
		}
		m["server.metrics_scrape_ms"] = median(scrapes)
	}

	for _, d := range s.liveDaemons() {
		d.stop()
	}
	s.killAll()
	s.ctl.CloseIdleConnections()
	s.verifyExactlyOnce(all)
	return nil
}

// buildDaemon compiles cmd/ardad into the benchmark's output directory. The
// time is reported as proc.build_s and is not part of setup_s.
func (h *harness) buildDaemon() (string, time.Duration, error) {
	bin := filepath.Join(h.outDir, "bin", "ardad")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ardad")
	cmd.Dir = h.moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building ardad: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

package lease

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/faults"
)

func leasePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), FileName)
}

// TestAcquireFirstWins races eight contenders for a free lease: the atomic
// link admits exactly one; the rest observe a live holder.
func TestAcquireFirstWins(t *testing.T) {
	path := leasePath(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var wins int
	var held int
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := Acquire(path, Options{Owner: DefaultOwner(), Token: 1, TTL: time.Minute})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				wins++
				if l.Token() != 1 {
					t.Errorf("winner token = %d, want 1", l.Token())
				}
			case errors.Is(err, ErrHeld):
				held++
			default:
				t.Errorf("contender %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 || held != 7 {
		t.Fatalf("wins=%d held=%d, want 1/7", wins, held)
	}
	info, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if info.Token != 1 || !Live(path) {
		t.Fatalf("lease not live with token 1: %+v", info)
	}
}

// TestStealExpiredFencesOldOwner: after expiry a higher-token acquisition
// steals the lease, and the old owner's Check and Renew observe loss
// without disturbing the new owner's file.
func TestStealExpiredFencesOldOwner(t *testing.T) {
	path := leasePath(t)
	o1, err := Acquire(path, Options{Owner: "o1", Token: 1, TTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("o1 acquire: %v", err)
	}
	// Before expiry the lease is firmly held.
	if _, err := Acquire(path, Options{Owner: "o2", Token: 2, TTL: time.Minute}); !errors.Is(err, ErrHeld) {
		t.Fatalf("pre-expiry steal: err = %v, want ErrHeld", err)
	}
	time.Sleep(80 * time.Millisecond)
	o2, err := Acquire(path, Options{Owner: "o2", Token: 2, TTL: time.Minute})
	if err != nil {
		t.Fatalf("post-expiry steal: %v", err)
	}
	if err := o1.Check(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("o1.Check = %v, want ErrLeaseLost", err)
	}
	if err := o1.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("o1.Renew = %v, want ErrLeaseLost", err)
	}
	if !o1.Lost() {
		t.Fatal("o1 not marked lost")
	}
	info, err := Read(path)
	if err != nil {
		t.Fatalf("Read after fenced renew: %v", err)
	}
	if info.Owner != "o2" || info.Token != 2 {
		t.Fatalf("o1's fenced renew disturbed the lease: %+v", info)
	}
	if err := o2.Check(); err != nil {
		t.Fatalf("o2.Check: %v", err)
	}
}

// TestRenewExtendsAndSelfFencesOnExpiry: a timely renewal extends the
// expiry; a renewal arriving after expiry self-fences even when nobody has
// stolen the lease yet.
func TestRenewExtendsAndSelfFencesOnExpiry(t *testing.T) {
	path := leasePath(t)
	l, err := Acquire(path, Options{Owner: "o1", Token: 1, TTL: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	before, _ := Read(path)
	time.Sleep(50 * time.Millisecond)
	if err := l.Renew(); err != nil {
		t.Fatalf("timely renew: %v", err)
	}
	after, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if after.ExpiresUnixNS <= before.ExpiresUnixNS {
		t.Fatalf("renew did not extend expiry: %d -> %d", before.ExpiresUnixNS, after.ExpiresUnixNS)
	}
	time.Sleep(300 * time.Millisecond) // past the renewed expiry
	if err := l.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late renew = %v, want ErrLeaseLost (self-fence)", err)
	}
}

// TestRenewDelayFaultSelfFences is the clock-skew satellite at the lease
// level: a heartbeat delayed past the TTL (via the lease.renew fault site)
// must self-fence, and the old owner's late write must not clobber the
// thief's lease.
func TestRenewDelayFaultSelfFences(t *testing.T) {
	path := leasePath(t)
	inj := faults.New(1, faults.Rule{
		Stage: faults.SiteLeaseRenew, Ordinal: -1, Kind: faults.Delay, Delay: 250 * time.Millisecond,
	})
	o1, err := Acquire(path, Options{Owner: "o1", Token: 1, TTL: 120 * time.Millisecond, Injector: inj, Ordinal: 7})
	if err != nil {
		t.Fatalf("o1 acquire: %v", err)
	}
	renewErr := make(chan error, 1)
	go func() { renewErr <- o1.Renew() }() // sleeps 250ms at the fault site
	time.Sleep(170 * time.Millisecond)     // o1's lease is now expired, renew still sleeping
	o2, err := Acquire(path, Options{Owner: "o2", Token: 2, TTL: time.Minute})
	if err != nil {
		t.Fatalf("o2 steal during delayed heartbeat: %v", err)
	}
	if err := <-renewErr; !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("delayed renew = %v, want ErrLeaseLost", err)
	}
	info, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if info.Owner != "o2" || info.Token != 2 {
		t.Fatalf("late heartbeat clobbered thief's lease: %+v", info)
	}
	if err := o2.Check(); err != nil {
		t.Fatalf("o2.Check after o1's fenced renew: %v", err)
	}
	fired := inj.Fired()
	if len(fired) != 1 || fired[0].Stage != faults.SiteLeaseRenew || fired[0].Ordinal != 7 {
		t.Fatalf("fault log = %+v, want one lease.renew[7] firing", fired)
	}
}

// TestReleaseFreesLease: a released lease is immediately acquirable, and the
// releaser's subsequent Check fails.
func TestReleaseFreesLease(t *testing.T) {
	path := leasePath(t)
	o1, err := Acquire(path, Options{Owner: "o1", Token: 1, TTL: time.Minute})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := o1.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := o1.Check(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Check after Release = %v, want ErrLeaseLost", err)
	}
	if Live(path) {
		t.Fatal("released lease reported live")
	}
	if _, err := Acquire(path, Options{Owner: "o2", Token: 2, TTL: time.Minute}); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestDeadPIDOrphansImmediately: a lease held by a dead process on this host
// is adoptable before its TTL — the SIGKILLed-daemon takeover path.
func TestDeadPIDOrphansImmediately(t *testing.T) {
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run `true`: %v", err)
	}
	deadPID := cmd.Process.Pid
	host, _ := os.Hostname()
	path := leasePath(t)
	info := Info{
		RunID: "r000001", Owner: "gone", Host: host, PID: deadPID,
		Token: 3, ExpiresUnixNS: time.Now().Add(time.Hour).UnixNano(),
	}
	body, _ := json.Marshal(&info)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if Live(path) {
		t.Fatal("dead-pid lease reported live")
	}
	l, err := Acquire(path, Options{Owner: "o2", Token: 4, TTL: time.Minute})
	if err != nil {
		t.Fatalf("takeover of dead-pid lease: %v", err)
	}
	if l.Token() != 4 {
		t.Fatalf("token = %d, want 4", l.Token())
	}
}

// TestConcurrentStealSingleWinner: eight thieves over one expired lease —
// the steal marker admits exactly one per orphaned generation.
func TestConcurrentStealSingleWinner(t *testing.T) {
	path := leasePath(t)
	if _, err := Acquire(path, Options{Owner: "o0", Token: 1, TTL: 30 * time.Millisecond}); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := map[string]bool{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := DefaultOwner()
			_, err := Acquire(path, Options{Owner: owner, Token: 2, TTL: time.Minute})
			if err == nil {
				mu.Lock()
				wins[owner] = true
				mu.Unlock()
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("thief %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(wins) != 1 {
		t.Fatalf("%d thieves won, want exactly 1", len(wins))
	}
	info, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !wins[info.Owner] || info.Token != 2 {
		t.Fatalf("on-disk lease %+v does not match the winning thief %v", info, wins)
	}
	// No stale or claim debris left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() != FileName {
			t.Fatalf("debris left after contention: %s", e.Name())
		}
	}
}

// writeInfo plants a lease-format document at path.
func writeInfo(t *testing.T, path string, info Info) {
	t.Helper()
	body, _ := json.Marshal(&info)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestStealMarkers covers the two ways a thief can find the steal right for
// an orphaned generation already taken. A live thief's marker means the steal
// is in progress: ErrHeld, and neither the lease nor the marker is touched. A
// marker whose thief died between linking it and finishing is walked past —
// the next thief takes the next marker name, wins, and sweeps both.
func TestStealMarkers(t *testing.T) {
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run `true`: %v", err)
	}
	host, _ := os.Hostname()
	expired := Info{Owner: "gone", Host: "elsewhere", PID: 1, Token: 5, ExpiresUnixNS: time.Now().Add(-time.Second).UnixNano()}
	thief := Info{Owner: "thief", Host: host, PID: os.Getpid(), Token: 6, ExpiresUnixNS: time.Now().Add(time.Hour).UnixNano()}

	path := leasePath(t)
	writeInfo(t, path, expired)
	writeInfo(t, path+".steal-5-0", thief)
	if _, err := Acquire(path, Options{Owner: "o2", Token: 6, TTL: time.Minute}); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire under a live thief's marker: %v, want ErrHeld", err)
	}
	if cur, err := Read(path); err != nil || cur.Token != 5 {
		t.Fatalf("lease displaced despite the live marker: %+v, %v", cur, err)
	}
	if _, err := os.Stat(path + ".steal-5-0"); err != nil {
		t.Fatalf("live thief's marker removed: %v", err)
	}

	thief.PID = cmd.Process.Pid // the thief died holding the steal right
	writeInfo(t, path+".steal-5-0", thief)
	l, err := Acquire(path, Options{Owner: "o2", Token: 6, TTL: time.Minute})
	if err != nil {
		t.Fatalf("acquire past a dead thief's marker: %v", err)
	}
	if cur, err := Read(path); err != nil || cur.Owner != "o2" || cur.Token != 6 || l.Check() != nil {
		t.Fatalf("lease after the steal: %+v, %v", cur, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != FileName {
			t.Fatalf("debris left after the steal: %s", e.Name())
		}
	}
}

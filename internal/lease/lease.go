// Package lease implements crash-safe, fenced, per-run ownership over a
// shared filesystem — the coordination substrate that lets N ardad processes
// point at one state directory and partition the run queue without a
// coordinator.
//
// The protocol needs nothing beyond POSIX atomic namespace operations:
//
//   - Acquire writes a candidate lease document to a uniquely named temp file
//     and hard-links it to the canonical lease path. link(2) fails with
//     EEXIST when the name is taken, so exactly one contender wins a free
//     lease no matter how many race.
//   - An existing lease is stealable only when it is orphaned: past its
//     expiry time, or held by a process on this host that is no longer alive
//     (signal 0 probes the PID, so a SIGKILLed daemon's runs are adoptable
//     immediately instead of after a TTL). A thief first takes the steal
//     right for the generation it read — an exclusive link of its claim to
//     lease.json.steal-<token>-<k>, so one thief per orphaned generation —
//     re-reads the lease under it, and only then renames that generation
//     aside and links as if the lease were free. Rename alone would move
//     whatever is at the path, including a faster thief's fresh lease.
//   - Renew extends the expiry, but self-fences first: if the on-disk lease
//     is no longer this owner's (stolen), or is this owner's but already
//     expired (the heartbeat arrived too late — clock skew, a paused
//     process), Renew returns ErrLeaseLost without writing. An expired lease
//     is never resurrected by its old owner, because a new owner may be
//     mid-steal.
//   - Check verifies ownership without extending it; state writers call it
//     immediately before every durable write so a stale owner fails with
//     ErrLeaseLost instead of corrupting the new owner's state.
//
// Fencing tokens make the residual TOCTOU windows harmless: every
// acquisition carries a strictly larger token (the caller persists it in the
// run record), so even if an old owner and a thief overlap for an instant,
// every fenced write re-reads the lease file and the lower token loses. The
// worst outcome of any race is duplicated compute, never divergent state.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/faults"
)

// FileName is the canonical lease file name inside a run directory.
const FileName = "lease.json"

var (
	// ErrHeld reports an acquisition attempt on a lease held by a live owner.
	ErrHeld = errors.New("lease: held by a live owner")
	// ErrLeaseLost reports that this owner no longer holds the lease: it was
	// stolen after expiry, or expired before a renewal arrived (self-fence).
	// The holder must abandon the guarded resource without further writes.
	ErrLeaseLost = errors.New("lease: lost")
)

// Info is the persisted lease document.
type Info struct {
	// RunID names the guarded resource (informational).
	RunID string `json:"run_id,omitempty"`
	// Owner is the acquiring manager's unique identity string.
	Owner string `json:"owner"`
	// Host and PID locate the owning process for liveness probes.
	Host string `json:"host"`
	PID  int    `json:"pid"`
	// Token is the monotonic fencing token of this acquisition.
	Token int64 `json:"token"`
	// ExpiresUnixNS is the lease expiry as Unix nanoseconds.
	ExpiresUnixNS int64 `json:"expires_unix_ns"`
}

// Expired reports whether the lease's TTL has passed at now.
func (i Info) Expired(now time.Time) bool {
	return now.UnixNano() >= i.ExpiresUnixNS
}

// Orphaned reports whether the lease no longer protects anything: expired,
// or owned by a process on this host that is dead. A live lease on another
// host is never orphaned before expiry — PID liveness is only meaningful
// locally.
func (i Info) Orphaned(now time.Time) bool {
	if i.Expired(now) {
		return true
	}
	host, _ := os.Hostname()
	return i.Host == host && !pidAlive(i.PID)
}

// pidAlive probes a PID with signal 0: delivery errors other than ESRCH
// (e.g. EPERM) still prove the process exists.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	return !errors.Is(err, os.ErrProcessDone) && !errors.Is(err, syscall.ESRCH)
}

// Read parses the lease document at path. A missing file returns an error
// wrapping fs.ErrNotExist.
func Read(path string) (Info, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	var i Info
	if err := json.Unmarshal(raw, &i); err != nil {
		return Info{}, fmt.Errorf("lease: unreadable %s: %w", path, err)
	}
	return i, nil
}

// Live reports whether path holds a non-orphaned lease right now — the
// "someone is actively working on this" probe used to protect live runs'
// checkpoints from pruning.
func Live(path string) bool {
	i, err := Read(path)
	if err != nil {
		return false
	}
	return !i.Orphaned(time.Now())
}

// Options configures an acquisition.
type Options struct {
	// RunID names the guarded resource (informational, stored in the file).
	RunID string
	// Owner is the acquiring manager's unique identity. Required.
	Owner string
	// Token is the fencing token to stamp; callers must make it strictly
	// larger than every prior acquisition's (max of the record's persisted
	// fence and the previous lease's token, plus one).
	Token int64
	// TTL is the validity window one acquisition or renewal buys. Required.
	TTL time.Duration
	// Injector, when set, is probed at faults.SiteLeaseRenew (with Ordinal)
	// on every Renew — the chaos hook that models a delayed heartbeat.
	Injector *faults.Injector
	// Ordinal is the injection-site ordinal (typically the run's seq).
	Ordinal int
}

// ownerSeq disambiguates multiple managers in one process (tests).
var ownerSeq atomic.Int64

// DefaultOwner builds a process-unique owner identity: host:pid:n.
func DefaultOwner() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d:%d", host, os.Getpid(), ownerSeq.Add(1))
}

// Lease is one held (or formerly held) acquisition.
type Lease struct {
	path string
	opt  Options

	mu   sync.Mutex
	lost bool // set once Renew/Check observe loss, or on Release
}

// Acquire takes ownership of path: it links a candidate document into place
// (atomic, first contender wins) and, when an orphaned lease is in the way,
// steals it — claimSteal admits one thief per orphaned generation, and that
// thief renames the generation aside before linking. A live lease, or a live
// thief already stealing this generation, returns ErrHeld.
func Acquire(path string, o Options) (*Lease, error) {
	if o.Owner == "" {
		return nil, fmt.Errorf("lease: Options.Owner is required")
	}
	if o.TTL <= 0 {
		return nil, fmt.Errorf("lease: Options.TTL must be positive")
	}
	host, _ := os.Hostname()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, FileName+".claim-*")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	write := func() error {
		info := Info{
			RunID: o.RunID, Owner: o.Owner, Host: host, PID: os.Getpid(),
			Token: o.Token, ExpiresUnixNS: time.Now().Add(o.TTL).UnixNano(),
		}
		body, err := json.Marshal(&info)
		if err != nil {
			return err
		}
		if err := tmp.Truncate(0); err != nil {
			return err
		}
		if _, err := tmp.WriteAt(body, 0); err != nil {
			return err
		}
		return tmp.Sync()
	}
	if err := write(); err != nil {
		tmp.Close()
		return nil, err
	}
	defer tmp.Close()

	// Bounded contention loop: each pass either links (win), observes a live
	// holder or a live thief (ErrHeld), or — holding the steal right for the
	// orphaned generation it read — renames that generation aside and links
	// again. The claim is never rewritten once a marker links to it, so a
	// marker always reads as a complete document.
	var marker string // our steal marker, while we hold one
	var dead []string // markers dead thieves left for the same generation
	dropMarker := func() {
		if marker != "" {
			os.Remove(marker)
			marker = ""
		}
	}
	defer dropMarker()
	for try := 0; try < 8; try++ {
		err := os.Link(tmpName, path)
		if err == nil {
			// The displaced generation is gone, and with it every marker
			// naming it: ours and the ones dead thieves left behind.
			dropMarker()
			for _, m := range dead {
				os.Remove(m)
			}
			if serr := atomicio.SyncDir(dir); serr != nil {
				os.Remove(path)
				return nil, serr
			}
			return &Lease{path: path, opt: o}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		// Holding a marker here means someone linked into the gap our rename
		// opened: the steal is over, and the marker must not outlive it.
		dropMarker()
		cur, rerr := Read(path)
		if rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue // vanished between link and read: retry
			}
			return nil, rerr
		}
		if !cur.Orphaned(time.Now()) {
			return nil, fmt.Errorf("%w: %s holds %s (token %d)", ErrHeld, cur.Owner, path, cur.Token)
		}
		// Refresh the candidate's expiry before it becomes a marker: the
		// steal may have waited out a contention round.
		if werr := write(); werr != nil {
			return nil, werr
		}
		if marker, dead, err = claimSteal(tmpName, path, cur.Token); err != nil {
			return nil, err
		}
		// The marker only proves nobody else may displace generation
		// cur.Token from now on; a thief that finished before we linked it
		// may already have. Look again, and touch nothing but that generation.
		if again, rerr := Read(path); rerr != nil || again.Token != cur.Token || again.Owner != cur.Owner {
			dropMarker()
			continue
		}
		stale := fmt.Sprintf("%s.stale-%d-%d", path, os.Getpid(), time.Now().UnixNano())
		if rerr := os.Rename(path, stale); rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue // its owner released it under us: race for the link
			}
			return nil, rerr
		}
		os.Remove(stale)
	}
	return nil, fmt.Errorf("%w: %s contended beyond retry bound", ErrHeld, path)
}

// claimSteal takes the exclusive right to displace the orphaned generation
// `token` at path: it hard-links the claim to <path>.steal-<token>-<k> for the
// first k whose predecessors all belong to thieves that are themselves
// orphaned (dead, or their claim expired). link(2) admits one creator per
// name, markers are never renewed — so "orphaned" only ever turns true — and
// a name is reused only after the generation it names has left path, which
// the caller re-checks; together a thief can only displace the generation it
// read. A live thief's marker is ErrHeld. On success it returns the caller's
// marker and the dead thieves' it walked past, for the winner to sweep.
func claimSteal(claim, path string, token int64) (marker string, dead []string, err error) {
	for try := 0; try < 32 && len(dead) < 8; try++ {
		marker = fmt.Sprintf("%s.steal-%d-%d", path, token, len(dead))
		err := os.Link(claim, marker)
		if err == nil {
			return marker, dead, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", nil, err
		}
		thief, rerr := Read(marker)
		if errors.Is(rerr, fs.ErrNotExist) {
			continue // its thief just finished or gave up: the name is free again
		}
		if rerr != nil {
			return "", nil, rerr
		}
		if !thief.Orphaned(time.Now()) {
			return "", nil, fmt.Errorf("%w: %s is stealing %s (token %d)", ErrHeld, thief.Owner, path, token)
		}
		dead = append(dead, marker)
	}
	return "", nil, fmt.Errorf("%w: %s has too many abandoned steals of token %d", ErrHeld, path, token)
}

// Token returns the fencing token of this acquisition.
func (l *Lease) Token() int64 { return l.opt.Token }

// Owner returns the owner identity of this acquisition.
func (l *Lease) Owner() string { return l.opt.Owner }

// Lost reports whether this lease has been observed lost (or released).
func (l *Lease) Lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// markLost flags the lease and returns ErrLeaseLost.
func (l *Lease) markLost() error {
	l.lost = true
	return ErrLeaseLost
}

// verifyLocked re-reads the on-disk lease and classifies ownership. It
// returns the current info when the lease is still this owner's and
// unexpired; every other outcome marks the lease lost.
func (l *Lease) verifyLocked() (Info, error) {
	if l.lost {
		return Info{}, ErrLeaseLost
	}
	cur, err := Read(l.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Info{}, l.markLost()
		}
		return Info{}, err // transient read failure: ownership undecided
	}
	if cur.Owner != l.opt.Owner || cur.Token != l.opt.Token {
		return Info{}, l.markLost()
	}
	if cur.Expired(time.Now()) {
		// Self-fence: our own lease ran out before this renewal/check. A
		// thief may be mid-steal, so the old owner must never write again —
		// not even to resurrect the lease.
		return Info{}, l.markLost()
	}
	return cur, nil
}

// Renew extends the lease's expiry by the acquisition TTL. It probes the
// faults.SiteLeaseRenew injection site first (a Delay rule there models a
// heartbeat arriving late), then self-fences per verifyLocked before
// rewriting the document crash-safely. ErrLeaseLost is permanent; other
// errors (filesystem trouble) leave ownership undecided and may be retried
// on the next heartbeat.
func (l *Lease) Renew() error {
	if err := l.opt.Injector.Check(faults.SiteLeaseRenew, l.opt.Ordinal); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, err := l.verifyLocked()
	if err != nil {
		return err
	}
	cur.ExpiresUnixNS = time.Now().Add(l.opt.TTL).UnixNano()
	body, err := json.Marshal(&cur)
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(l.path, body)
}

// Check verifies this owner still holds the lease without extending it.
// Fenced writers call it immediately before every durable write.
func (l *Lease) Check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.verifyLocked()
	return err
}

// Release gives the lease up voluntarily: the file is removed (if still
// ours) and the lease is marked lost so later Renew/Check calls fail. A
// lease already lost releases as a no-op.
func (l *Lease) Release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost {
		return nil
	}
	cur, err := Read(l.path)
	l.lost = true
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	if cur.Owner != l.opt.Owner || cur.Token != l.opt.Token {
		return nil // someone else's now; leave it
	}
	return os.Remove(l.path)
}

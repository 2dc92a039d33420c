// Command ardad is the ARDA augmentation service: a long-running daemon that
// accepts augmentation runs over HTTP, executes them through bounded,
// tenant-fair admission lanes on the shared worker pool, and survives
// crashes without losing work.
//
// Usage:
//
//	ardad -addr localhost:8080 -state /var/lib/ardad -dir data/
//
// One daemon or several may serve one -state directory (on one host or a
// shared filesystem); the protocol is the same. Each run is owned via a
// crash-safe filesystem lease with a monotonic fencing token,
// heartbeat-renewed at a third of -lease-ttl. A SIGKILLed daemon's runs are
// adopted by a surviving peer, or by the next daemon started over the
// directory — immediately when the dead process is on the same host, within
// -lease-ttl otherwise — and a stale owner is fenced out at its next write
// instead of corrupting state.
//
// Submit runs as JSON specs (see internal/runqueue.Spec):
//
//	curl -d '{"base":"taxi","target":"collisions"}' localhost:8080/runs
//
// Durability: every accepted run is persisted before it is acknowledged and
// checkpoints its pipeline's verdicts as they are decided, so killing the
// daemon — including kill -9 — and restarting it over the same -state
// directory adopts and resumes in-flight runs to bit-identical results. SIGTERM and
// SIGINT drain gracefully: admission closes (new submits get 503 +
// Retry-After), in-flight runs get -drain-timeout to finish, stragglers are
// checkpointed and their leases released for a peer or the next start to
// adopt, and the process exits 0.
//
// Queueing: at most -concurrency runs execute at once and at most -queue-cap
// wait; submits beyond that are rejected with 429. Each spec may name a
// tenant (default lane: -tenant); lanes are dispatched deficit-round-robin
// (-drr-quantum runs per lane per visit) with per-lane queue caps
// (-tenant-cap) and in-flight quotas (-tenant-inflight), so one tenant's
// flood cannot starve the others. Transient run failures retry with capped
// exponential backoff. /metrics exposes the queue, lease, and per-tenant
// telemetry plus runtime gauges in Prometheus text format (typed counters,
// gauges and histograms);
// /runs/{id}/events streams one run's trace as NDJSON.
//
// Old checkpoints: -checkpoint-ttl prunes per-run checkpoint directories
// whose last write is older than the TTL at startup (0 keeps everything).
package main

import (
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/arda-ml/arda/internal/cli"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/runqueue"
	"github.com/arda-ml/arda/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address")
		state        = flag.String("state", "", "state directory for run records and checkpoints (required)")
		dir          = flag.String("dir", "", "default CSV corpus directory for specs that name none")
		queueCap     = flag.Int("queue-cap", 16, "maximum queued (not yet running) runs; submits beyond are rejected with 429")
		concurrency  = flag.Int("concurrency", 2, "runs executing at once (they share the worker pool)")
		workers      = flag.Int("workers", 0, "max parallel workers shared by all runs (0 = all cores); results are identical for any value")
		runTimeout   = flag.Duration("run-timeout", 0, "default per-run wall-clock budget for specs without one (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight runs before checkpointing them and handing them off")
		ckTTL        = flag.Duration("checkpoint-ttl", 0, "prune per-run checkpoint state older than this at startup (0 = keep forever; never prunes runs holding a live lease)")
		leaseTTL     = flag.Duration("lease-ttl", runqueue.DefaultLeaseTTL, "run-ownership lease TTL: how long a run orphaned by a dead daemon on another host waits for adoption (same-host orphans are adopted at once); values <= 0 mean the default")
		tenant       = flag.String("tenant", "default", "admission lane for specs that name no tenant")
		tenantCap    = flag.Int("tenant-cap", 0, "maximum queued runs per tenant lane (0 = -queue-cap)")
		tenantInFl   = flag.Int("tenant-inflight", 0, "maximum concurrently executing runs per tenant (0 = unlimited)")
		drrQuantum   = flag.Int("drr-quantum", 1, "deficit-round-robin quantum: runs one tenant lane may dispatch per scheduler visit")
		verbose      = flag.Bool("v", false, "log queue activity to stderr")
	)
	flag.Parse()
	cli.Setup("ardad", *verbose)
	if *state == "" {
		cli.Fatalf("-state is required")
	}

	// One long-lived trace carries the daemon's telemetry: queue metrics from
	// the manager, runtime gauges from the server's sampler. Per-run traces
	// are separate (each run gets its own, streamed at /runs/{id}/events).
	trace := obs.New("ardad")

	mgr, err := runqueue.Open(runqueue.Config{
		StateDir:          *state,
		DataDir:           *dir,
		QueueCap:          *queueCap,
		Concurrency:       *concurrency,
		Workers:           *workers,
		RunTimeout:        *runTimeout,
		CheckpointTTL:     *ckTTL,
		LeaseTTL:          *leaseTTL,
		DefaultTenant:     *tenant,
		TenantQueueCap:    *tenantCap,
		TenantMaxInFlight: *tenantInFl,
		DRRQuantum:        *drrQuantum,
		Trace:             trace,
		Logf:              cli.Progressf,
	})
	if err != nil {
		cli.Fatalf("opening state %s: %v", *state, err)
	}

	srv, err := server.New(*addr, mgr, trace)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	cli.Noticef("ardad serving on http://%s (state %s)", srv.Addr(), *state)

	// Graceful drain: stop admitting, give in-flight runs the drain budget,
	// checkpoint and hand off what remains, then stop the listener. The order
	// matters — the listener stays up during the drain so status polls and
	// event streams keep answering (submits get 503) until the queue is idle.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	cli.Noticef("received %s, draining (timeout %s)", s, *drainTimeout)
	if err := mgr.Close(*drainTimeout); err != nil {
		cli.Errorf("drain: %v", err)
	}
	if err := srv.Close(0); err != nil {
		cli.Errorf("closing listener: %v", err)
	}
	cli.Noticef("drained, exiting")
}

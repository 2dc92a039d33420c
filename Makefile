# Development targets. `make check` is the gate every PR must pass: gofmt,
# vet, build, the full test suite under the race detector (the parallel execution
# layer makes -race mandatory, not optional), and the allocation-regression
# tests without -race (AllocsPerRun is unreliable under the detector, so
# those tests skip themselves in the race run).

GO ?= go

# The pipeline's eight stages (core's stage table, in order): what the smoke
# targets require of a run's trace.
STAGES := prefilter,coreset,screen,join,impute,select,materialize,evaluate

.PHONY: check fmt vet build test race alloc chaos crash lease-chaos quality bench-parallel bench-smoke failover-soak memory-soak trace-smoke metrics-smoke serve-smoke profile-select profile-forest profile-evaluate profile-load profile-join

check: fmt vet build race alloc quality chaos crash lease-chaos trace-smoke metrics-smoke serve-smoke bench-smoke

# Fails when any file is not gofmt-clean (gofmt -l prints its name).
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Under -race (5-20x slowdown) the packages that run whole pipelines are
# slow: on 2 vCPUs internal/core takes about 6.5 minutes and the claim tests
# of internal/experiments about 8, close enough to Go's default 10m
# per-package timeout that a smaller machine would cross it.
race:
	$(GO) test -race -timeout 45m ./...

# Parallel-kernel micro-benchmarks: report speedup_x at 1 worker vs all cores.
# Discover and ReadCSVDir are the pre-Augment front half on school-l x1.
bench-parallel:
	$(GO) test -bench='Mul|MulABt|RStar|LeverageIndices|Discover|ReadCSVDir' -benchtime=1x -run=^$$ \
		./internal/linalg/ ./internal/featsel/ ./internal/coreset/ ./internal/discovery/ ./internal/dataframe/

# The system benchmark's own checks, shortened (about a minute and a half):
# bench/ still compiles against the program, one traced tall run and one
# untraced wide run still pass its digest / one-worker / checkpoint
# verification, and one ardad under two clients still completes every run
# exactly once. Catches a broken benchmark before the gate does; measures
# nothing.
bench-smoke:
	$(GO) vet ./bench
	$(GO) run ./bench -workload tall-base -seconds 5 -trace 1
	$(GO) run ./bench -workload wide-repo -seconds 5 -trace 0
	$(GO) run ./bench -workload service-steady -seconds 5 -trace 0

# Ten full-length service-failover passes at ten seeds, stopping at the first
# that fails: every SIGKILL must be followed by a takeover and every run must
# complete exactly once. About seven minutes, so not part of check; run it
# when a change touches runqueue, lease, checkpoint or a run's duration.
failover-soak:
	@for i in 1 2 3 4 5 6 7 8 9 10; do \
		echo "failover-soak: pass $$i"; \
		$(GO) run ./bench -workload service-failover -seconds 25 -seed $$i || exit 1; \
	done

# A thousand fast runs through one daemon (internal/server's manager and
# HTTP server, in one process), each submitted, polled to completion and its
# events read back. Logs the live heap and VmHWM every 100 runs and fails if
# the live heap grows more than 4 KB per finished run from run 100 on: a
# finished run must cost the daemon only its record. About five minutes, so
# not part of check; run it when a change touches what runqueue, server or
# obs keep per run. The test sits behind the soak build tag, out of
# `go test ./...`.
memory-soak:
	$(GO) test -tags soak -run '^TestMemorySoak$$' -v -timeout 30m ./internal/server/

# Allocation-regression gate: the AllocsPerRun tests that skip under -race.
alloc:
	$(GO) test -run 'Allocs' ./internal/join/ ./internal/dataframe/ ./internal/discovery/ ./internal/eval/ ./internal/obs/ ./internal/faults/ ./internal/checkpoint/ ./internal/ml/

# The answer-quality gate (internal/core/quality_test.go), verbose so the
# numbers it holds are printed: table precision / recall, score gain and
# answer stability over (corpus seed × pipeline seed) pairs of the wide
# corpus against the values recorded at the parent commit, recorded scores,
# digests and answer on a corpus the screen leaves alone, the pinned
# Poverty / SchoolL answers of TestEndToEndWitness at 1 and 8 workers, and
# the join-spec never-panic fuzz seeds, and the paper's evaluation claims
# (internal/experiments, about 35 s on 2 vCPUs), verbose so each prints its
# numbers.
# race runs the same tests under the detector.
quality:
	$(GO) test -run 'TestQuality|TestEndToEndWitness' -v ./internal/core/
	$(GO) test -run TestClaim -v ./internal/experiments/
	$(GO) test -run 'FuzzJoinSpec' ./internal/join/

# Chaos suite under the race detector: deterministic fault injection,
# quarantine isolation, cancellation/timeout, pool panic recovery, the screen
# stage's own suite (its rule, 1 vs 8 workers, its fault site, cancellation
# mid-fan-out), and the
# daemon's admission/persistence/run fault sites, queue-pressure rejection,
# tenant fairness and quotas, lease ownership (default config, dead-owner
# adoption at Open, skewed-heartbeat self-fence), drain-under-load and the
# drain/admission hand-off, accounting exact in every snapshot, and the
# never-panic fuzz seeds for run.json, lease.json and run specs.
chaos:
	$(GO) test -race -timeout 20m -run 'TestChaos|TestCancel|TestTimeout|TestCanceled|TestScreen|TestPanic|TestForEachPanic|TestMapPanic|TestInjector|TestRetry|TestDo|TestBackoff' \
		./internal/core/ ./internal/parallel/ ./internal/faults/ ./internal/retry/
	$(GO) test -race -timeout 20m \
		-run 'TestQueueBounds|TestAdmissionAndPersistenceFaults|TestTransientRunFailure|TestRunHardFailure|TestDrain|TestService|TestTenant|TestLease|TestAccounting|FuzzReadRecord|FuzzSpecJSON' \
		./internal/runqueue/ ./internal/server/

# Crash/durability suite under the race detector: checkpoint corruption
# rejection, kill-at-every-checkpoint-boundary resume equivalence (with and
# without the screen boundary), atomic artifact writes (atomicio, and the
# CSV and NDJSON writers: dataframe's TestWriteCSVFileAtomic, obs's
# TestNDJSONFileSink*), daemon state recovery
# (incl. a run's persist → publish → discard completion order and a restart
# from scratch over a half-deleted checkpoint), and the process-level gates (arda SIGINT partial report, ardad SIGKILL
# with two runs in flight resuming bit-identically at 1 and 8 workers).
crash:
	$(GO) test -race -timeout 30m \
		-run 'TestCheckpoint|TestResume|TestSave|TestOpen|TestCreate|TestTruncate|TestLoad|TestNilLog|TestNDJSONFileSink|TestWriteCSVFileAtomic|TestWriteFile|TestPrune|TestDiscard|TestRecover|TestSubmitRuns|TestHalfDeleted|TestCompletionDurable' \
		./internal/checkpoint/ ./internal/core/ ./internal/atomicio/ ./internal/obs/ ./internal/dataframe/ ./internal/runqueue/
	$(GO) test -timeout 20m -run 'TestSIGINTPartialReport|TestCrashRecoveryBitIdentical' \
		./cmd/arda/ ./cmd/ardad/

# The lease primitive's own suite (incl. the lease.json fuzz seeds) under the
# race detector, then the process-level chaos gate: three ardad daemons
# sharing one state directory while a kill driver SIGKILLs whichever daemon
# owns running work; every run must complete exactly once, bit-identical to
# an uninterrupted daemon, at 1 and 8 workers. (The manager's lease tests
# are part of chaos: there is one queue protocol, so one manager suite.)
lease-chaos:
	$(GO) test -race -timeout 20m ./internal/lease/
	$(GO) test -timeout 30m -run 'TestMultiDaemonChaosExactlyOnce' ./cmd/ardad/

# Observability smoke: generate a small corpus, run the full pipeline with
# -v and -trace, then validate the NDJSON event stream covers every stage.
trace-smoke:
	@rm -rf /tmp/arda-trace-smoke && mkdir -p /tmp/arda-trace-smoke
	$(GO) run ./cmd/datagen -corpus poverty -scale 0.2 -out /tmp/arda-trace-smoke/data
	$(GO) run ./cmd/arda -dir /tmp/arda-trace-smoke/data -base poverty -target poverty_rate \
		-size 192 -seed 1 -v -trace /tmp/arda-trace-smoke/trace.ndjson \
		-out /tmp/arda-trace-smoke/augmented.csv
	$(GO) run ./cmd/tracecheck \
		-stages $(STAGES) \
		/tmp/arda-trace-smoke/trace.ndjson

# Telemetry smoke: run the pipeline with the live metrics server enabled and
# validate it from outside while the run executes — /debug/pprof/cmdline
# must answer 200 on the same listener, /metrics must be syntactically valid,
# typed Prometheus text exposition containing the stage histograms and worker
# gauges, and /events must stream a complete, schema-valid span stream ending
# with the terminal run event.
metrics-smoke:
	@rm -rf /tmp/arda-metrics-smoke && mkdir -p /tmp/arda-metrics-smoke
	$(GO) build -o /tmp/arda-metrics-smoke/arda ./cmd/arda
	$(GO) build -o /tmp/arda-metrics-smoke/tracecheck ./cmd/tracecheck
	$(GO) run ./cmd/datagen -corpus school-l -scale 0.1 -out /tmp/arda-metrics-smoke/data
	@/tmp/arda-metrics-smoke/arda -dir /tmp/arda-metrics-smoke/data -base school-l \
		-target performance -size 192 -seed 1 -metrics-addr 127.0.0.1:19753 \
		-out /tmp/arda-metrics-smoke/augmented.csv & \
	pid=$$!; \
	code=000; for i in $$(seq 1 1000); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:19753/debug/pprof/cmdline) && break; sleep 0.01; \
	done; \
	test "$$code" = 200 || { echo "metrics-smoke: /debug/pprof/cmdline answered $$code"; kill $$pid 2>/dev/null; exit 1; }; \
	/tmp/arda-metrics-smoke/tracecheck -scrape http://127.0.0.1:19753 \
		-stages $(STAGES) \
		-require-metrics arda_join_seconds,arda_select_seconds,arda_workers_in_flight,arda_workers_max,arda_runtime_goroutines,arda_runtime_heap_alloc_bytes \
		|| { kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid

# Service smoke: start the ardad daemon over a generated corpus, submit a
# run through the HTTP API, validate the live per-run event stream and the
# daemon's /metrics exposition with tracecheck while the run executes, poll
# the result to completion, then drain with SIGTERM and require a clean
# exit. Exercises the full submit → queue → execute → stream → drain path
# from outside the process.
serve-smoke:
	@rm -rf /tmp/arda-serve-smoke && mkdir -p /tmp/arda-serve-smoke
	$(GO) build -o /tmp/arda-serve-smoke/ardad ./cmd/ardad
	$(GO) build -o /tmp/arda-serve-smoke/tracecheck ./cmd/tracecheck
	$(GO) run ./cmd/datagen -corpus poverty -scale 0.2 -out /tmp/arda-serve-smoke/data
	@/tmp/arda-serve-smoke/ardad -addr 127.0.0.1:19754 -state /tmp/arda-serve-smoke/state \
		-dir /tmp/arda-serve-smoke/data -v & \
	pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		curl -fs http://127.0.0.1:19754/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
	done; \
	test $$up = 1 || { echo "serve-smoke: daemon never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	id=$$(curl -fs -d '{"base":"poverty","target":"poverty_rate","size":192,"seed":1,"tenant":"acme"}' \
		http://127.0.0.1:19754/runs | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "serve-smoke: submit failed"; kill $$pid 2>/dev/null; exit 1; }; \
	echo "serve-smoke: submitted run $$id"; \
	/tmp/arda-serve-smoke/tracecheck -scrape http://127.0.0.1:19754 -events-path /runs/$$id/events \
		-stages $(STAGES) \
		-require-metrics arda_queue_admitted,arda_queue_depth,arda_queue_wait_seconds,arda_runtime_goroutines,arda_workers_in_flight,arda_lease_,arda_tenant_acme_ \
		|| { kill $$pid 2>/dev/null; exit 1; }; \
	ok=0; for i in $$(seq 1 100); do \
		curl -fs http://127.0.0.1:19754/runs/$$id/result >/dev/null 2>&1 && { ok=1; break; }; sleep 0.1; \
	done; \
	test $$ok = 1 || { echo "serve-smoke: run never completed"; kill $$pid 2>/dev/null; exit 1; }; \
	echo "serve-smoke: run $$id completed"; \
	kill -TERM $$pid; wait $$pid

# CPU profile of RIFS's K injection repetitions with their ranking ensembles
# — the pipeline's dominant cost — on both tasks: BenchmarkRStar is a
# classification fixture, BenchmarkRStarRegression the 256-row regression
# coreset three of the four benchmark workloads run. Inspect with
# `go tool pprof select.pprof`.
profile-select:
	$(GO) test -bench='^BenchmarkRStar' -benchtime=3x -run=^$$ \
		-cpuprofile=select.pprof ./internal/featsel/
	@rm -f featsel.test
	@echo "wrote select.pprof (go tool pprof select.pprof)"

# CPU profile of the split kernel alone: the forest shapes ARDA fits
# (BenchmarkSelectForest*: ranking forests over a coreset on both tasks,
# the regression ranking shape, both evaluation-forest shapes and the RIFS
# repetition pair). Inspect with `go tool pprof forest.pprof`.
profile-forest:
	$(GO) test -bench='^BenchmarkSelectForest' -benchtime=10x -run=^$$ \
		-cpuprofile=forest.pprof ./internal/ml/
	@rm -f ml.test
	@echo "wrote forest.pprof (go tool pprof forest.pprof)"

# CPU profile of the final estimate on the benchmark's tall-base shape
# (BenchmarkEvaluateTallBase: Poverty x8, 12,000 base rows, coreset 256):
# the evaluate stage's two encodings and its base and augmented holdout
# forests, the spans evaluate.encode, evaluate.base and evaluate.augmented.
# Its setup runs a full Augment (twice: once per benchmark round); ten
# evaluations make that a small share of the profile. Do not focus it on
# run.evaluate: the trees grow on the shared pool's goroutines, whose stacks
# do not contain it, so such a focus keeps about a fifth of the samples.
profile-evaluate:
	$(GO) test -bench='^BenchmarkEvaluateTallBase$$' -benchtime=10x -run=^$$ \
		-cpuprofile=evaluate.pprof ./internal/core/
	@rm -f core.test
	@echo "wrote evaluate.pprof (go tool pprof evaluate.pprof)"

# CPU and allocation profiles of the front half on the wide-repo corpus
# (school-l x1): BenchmarkReadCSVDir, the CSV load, and BenchmarkDiscover,
# column profiling and matching. Inspect with `go tool pprof load.pprof`, or
# `go tool pprof -sample_index=alloc_space load.mem.pprof` for bytes.
profile-load:
	$(GO) test -bench='^BenchmarkReadCSVDir$$' -benchtime=10x -run=^$$ \
		-cpuprofile=load.pprof -memprofile=load.mem.pprof ./internal/dataframe/
	$(GO) test -bench='^BenchmarkDiscover$$' -benchtime=10x -run=^$$ \
		-cpuprofile=discover.pprof -memprofile=discover.mem.pprof ./internal/discovery/
	@rm -f dataframe.test discovery.test
	@echo "wrote load.pprof, load.mem.pprof, discover.pprof, discover.mem.pprof (go tool pprof <file>)"

# CPU and allocation profiles of the join data plane (BenchmarkDataplane*:
# key grouping and probing on a composite key, the hard join, AggregateByKey,
# and a time-resample join). Inspect with `go tool pprof join.pprof`, or
# `go tool pprof -sample_index=alloc_space join.mem.pprof` for bytes.
profile-join:
	$(GO) test -bench='^BenchmarkDataplane' -benchtime=10x -run=^$$ \
		-cpuprofile=join.pprof -memprofile=join.mem.pprof ./internal/join/
	@rm -f join.test
	@echo "wrote join.pprof, join.mem.pprof (go tool pprof <file>)"

GO ?= go

# Packages whose tests exercise shared mutable state across goroutines;
# these run a second time under the race detector in `make ci`.
RACE_PKGS = ./internal/relation ./internal/catalog ./internal/core ./internal/server ./internal/storage ./internal/query ./internal/qcache ./internal/tx ./internal/wal ./internal/repl ./internal/vec ./internal/integrity ./internal/wire ./client

.PHONY: ci build vet fmt test race examples chaos e2e-cluster e2e-integrity fuzz fuzz-smoke bench bench-smoke bench-module docs-check clean

# ci is the tier-1 gate: everything must build, vet and gofmt clean, pass
# tests, pass the race detector on the concurrency-bearing packages, keep
# the read-path microbenchmarks compiling and running, keep the tsbench
# module (bench/, which `./...` does not reach) building against the
# internal APIs, keep the prose citing only evidence files and experiment
# ids that exist, run every example program to a clean exit, boot a real
# 1-primary + 2-follower cluster end to end, and prove the integrity
# subsystem over the wire.
ci: vet fmt build test race examples bench-smoke bench-module docs-check e2e-cluster e2e-integrity

# fmt fails if any file needs gofmt (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order within each package so accidental
# inter-test state dependence surfaces in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

# -timeout is per package binary: internal/storage alone runs 292–474 s
# under the race detector, against go test's default of 600 s.
race:
	$(GO) test -race -shuffle=on -timeout 30m $(RACE_PKGS)

# Run every program under examples/; any non-zero exit fails the target
# (the on-call example exits 1 when its rota leaves an hour of the week
# unowned or doubly owned).
examples:
	@set -e; for d in examples/*/; do d=$${d%/}; echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done

# The resilience acceptance tests: idempotent retry through connection
# resets, WAL poisoning to read-only, crash recovery to exactly the acked
# set, and graceful drain — all under the race detector.
chaos:
	$(GO) test -race -run 'Chaos|Drain' -v ./internal/server

# The replication acceptance tests: a WAL-shipping primary with two live
# followers on ephemeral loopback ports — replicated reads with staleness
# bounds, typed read-only refusals, fan-out routing, and the
# kill-and-catch-up chaos path, all under the race detector.
e2e-cluster:
	$(GO) test -race -run 'ClusterE2E|FollowerCatchUp' -v ./internal/server

# The integrity acceptance tests: client-verified inclusion/consistency
# proofs across restart and follower replay, bit-flip detection with
# quarantine and repair, and the kill-mid-scrub chaos path — all under
# the race detector.
e2e-integrity:
	$(GO) test -race -run 'IntegrityE2E' -v ./internal/server

# Short smoke runs of the server decode fuzzers (they run as plain tests in
# `make test`; this gives the mutation engine a little time on each).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeTransaction -fuzztime=20s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzDecodeQuery -fuzztime=20s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzBatchInsertRequest -fuzztime=20s ./internal/server

# fuzz-smoke gives every fuzz target in the repo 5s of mutation each —
# cheap enough to run before a release. Anchored patterns: go test allows
# one -fuzz target per package invocation. Each input that widens coverage
# is minimized in at most 50 runs of the target: under go test's default of
# 60s, FuzzWireCodec — ≈ 1 ms a run over kilobyte seeds — spent its whole
# 5s minimizing the first such input and ran ≈ 3 inputs a second.
FUZZMIN = -fuzzminimizetime=50x
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzDecodeTransaction$$' -fuzztime=5s $(FUZZMIN) ./internal/server
	$(GO) test -run=NONE -fuzz='^FuzzDecodeQuery$$' -fuzztime=5s $(FUZZMIN) ./internal/server
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=5s $(FUZZMIN) ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzParseExplain$$' -fuzztime=5s $(FUZZMIN) ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzParseDuration$$' -fuzztime=5s $(FUZZMIN) ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzParseCivil$$' -fuzztime=5s $(FUZZMIN) ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzParseGranularity$$' -fuzztime=5s $(FUZZMIN) ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzRead$$' -fuzztime=5s $(FUZZMIN) ./internal/backlog
	$(GO) test -run=NONE -fuzz='^FuzzWALReplay$$' -fuzztime=5s $(FUZZMIN) ./internal/wal
	$(GO) test -run=NONE -fuzz='^FuzzDecodeMutation$$' -fuzztime=5s $(FUZZMIN) ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRespecialize$$' -fuzztime=5s $(FUZZMIN) ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzRespecializeReplay$$' -fuzztime=5s $(FUZZMIN) ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzParseAggregate$$' -fuzztime=5s $(FUZZMIN) ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzDecodeProof$$' -fuzztime=5s $(FUZZMIN) ./internal/integrity
	$(GO) test -run=NONE -fuzz='^FuzzMerkleConsistency$$' -fuzztime=5s $(FUZZMIN) ./internal/integrity
	$(GO) test -run=NONE -fuzz='^FuzzBatchInsertRequest$$' -fuzztime=5s $(FUZZMIN) ./internal/server
	$(GO) test -run=NONE -fuzz='^FuzzWireCodec$$' -fuzztime=5s $(FUZZMIN) ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzColumnFold$$' -fuzztime=5s $(FUZZMIN) ./internal/query

# Regenerate every figure/claim table, the two ablations, and the
# durability, overload and cluster experiments (S2, S3, S5). It rewrites
# two committed single-run files in place (BENCH_overload.json,
# BENCH_cluster.json) and leaves one that is not committed (SCRATCH_BENCH
# below). Everything else about the serving path is tsbench: bench/run.sh.
bench:
	$(GO) run ./cmd/benchrunner

# A trimmed benchmark pass: snapshot vs cache-hit time-slices,
# the auto-specialization before/after pair, the idempotency window's
# lookup and remember per key on a full, churning window (0 allocs/op),
# boot replay over a log with
# closes and over an ingesting sensor's log of batch frames, keyed per element
# and under one key (versions/s), the same one-key log under a snapshot that
# covers every frame (its frames left unread), a follower applying 4,096
# single-insert frames 1, 8 and 64 a call (ns/frame), snapshot boot of a 65,536-version sensor
# relation (allocs/version), a close after a publish at 8 k and 128 k elements (ns/op and B/op
# must not follow the size), the aggregate-after-append pair (run partials warm against the
# cache-off direct fold; with firehose-analytics' 65,536-chronon clamp, where the access path
# bounds the chunk loop: folded/op ≈ 2 warm, pruned/op the chunks outside the clamp, rows/op
# the rows folded), the aggregate after a delete and an insert on a heap, a
# tt-ordered and a vt-ordered log (folded/op must stay ≈ 1), the request paths over 100 k sealed
# versions (a time-slice, a rollback, a delete, a memo-off clamped USING ROW sum, the batch that
# fills a chunk, and sensor-append's COUNT(*) over the newest 4,096 chronons after a head insert,
# memo on), SELECT without an aggregate over a 20 k ledger (SELECT es, the recovery check's
# statement; WHEN VALID AT on the vt-ordered log; AS OF on the tt-ordered log), the batch scan
# the benchmark module's mirror gathers, the engine's two folds of 64 sealed chunks (from their
# columns, and row at a time over the same chunks materialized), the general organizations' zone-map scans beside the unpruned filter (20 k and
# 200 k ledger-shaped elements; pruned must stay far below filter) and the insert that keeps the
# zone map, a relation's lookups by surrogate on 1,048,576 versions in its store's chunked
# sequence (a hit, a miss past the end, a staged and committed delete, and Backlog),
# the hand-written wire codec beside encoding/json
# on the same result sets (and a 2,000-element answer copied out of chunk
# images beside the same answer encoded), and whole requests over loopback
# through the server's handler with a signer configured (point read, insert,
# 1000-element read, a 256-element batch, and a 2,000-element time-slice of a
# 20 k ledger with a write before each one — the read the result cache
# cannot help — and a cached time-slice and clamped aggregate revalidated
# to 304 after a head insert, and POSTed, served by the result cache across
# it), at -benchtime=100ms with -benchmem, so B/op and allocs/op print
# beside ns/op. Fast enough for ci; the end-to-end numbers for the same dimensions are tsbench's
# (read_*_rel on dashboard-hot, agg_*_rel on firehose-analytics,
# ingest_batch_p50_rel and recovery_s everywhere).
bench-smoke:
	$(GO) test -run=NONE -bench='^(BenchmarkReadPath|BenchmarkAutoSpecialize|BenchmarkInsertBatch|BenchmarkDedupWindow|BenchmarkReplayCloses|BenchmarkRecoverIngestLog|BenchmarkRecoverCoveredLog|BenchmarkApplyReplicatedFrames|BenchmarkCloseAfterPublish|BenchmarkAggregateAfterAppend|BenchmarkAggregateAfterWrite|BenchmarkSealedPaths|BenchmarkSelect)' -benchtime=100ms -benchmem ./internal/catalog
	$(GO) test -run=NONE -bench='^BenchmarkLoadSnapshot$$' -benchtime=100ms -benchmem ./internal/backlog
	$(GO) test -run=NONE -bench='^(BenchmarkColumnarScan|BenchmarkTemporalAggregate|BenchmarkScanGeneral|BenchmarkPush)' -benchtime=100ms -benchmem ./internal/storage
	$(GO) test -run=NONE -bench='^BenchmarkPosition$$' -benchtime=100ms -benchmem ./internal/relation
	$(GO) test -run=NONE -bench='^BenchmarkWireCodec' -benchtime=100ms -benchmem ./internal/wire
	$(GO) test -run=NONE -bench='^BenchmarkServeRoundTrip' -benchtime=100ms -benchmem ./internal/server

# The benchmark is its own module with a replace directive onto this
# one, so tier-1's `./...` never builds it; an internal API change can
# break it silently unless ci vets and tests it too.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# docs-check fails when README, DESIGN or EXPERIMENTS cites a BENCH_*.json
# that is neither in the repository nor in SCRATCH_BENCH, tells a reader to
# run a `benchrunner -exp` id that is not registered, or when fuzz-smoke's
# list and the repository's Fuzz functions disagree.
docs-check:
	$(GO) test -run 'TestDocsCiteWhatExists|TestFuzzSmokeListsEveryTarget' ./cmd/benchrunner

# clean removes only what `make bench` leaves untracked (S2's table). The
# other BENCH_*.json — the *_pairs.json series above all — are committed
# evidence.
SCRATCH_BENCH = BENCH_wal.json

clean:
	rm -f $(SCRATCH_BENCH)
	$(GO) clean ./...

GO ?= go

.PHONY: build bin test race vet fmt verify bench serve chaos cover fuzz cluster sample trace hbbench golden loc

build:
	$(GO) build ./...

# Install all command binaries into ./bin.
bin:
	$(GO) build -o bin/ ./cmd/...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# -shuffle=on randomizes test and subtest execution order each run,
# keeping the suite honest about hidden inter-test state.
test:
	$(GO) test -shuffle=on ./...

# The runner, simulator, HTTP service, and server binary are the
# concurrency-sensitive packages; run them under the race detector in
# addition to the plain suite, with the shared retry primitives (the
# breaker's half-open probe races) and durable-file helpers they use.
# The explicit -timeout covers the sim package, whose full suite under
# the race detector outgrew go test's default 10 minutes on small (1-2
# core) machines.
race:
	$(GO) test -race -timeout 30m ./internal/fault ./internal/retry ./internal/durable ./internal/runner ./internal/sim ./internal/service ./internal/cluster ./cmd/hbserved

# Fault-injection suite under the race detector: every fault kind fired
# into the runner, service, and cluster fabric (journal write/read
# corruption, dropped heartbeats), asserting bounded recovery (workers
# freed, breaker cycles, partial results well-formed, caches and journal
# lines quarantined), plus the durability contract over every on-disk
# artefact kind (bit flips, torn tails, leftover temp files, a torn
# journal line). -count=1 defeats the test cache so the chaos runs are
# always live.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|CrashSafety' ./internal/durable ./internal/runner ./internal/service ./internal/cluster

# Distributed-sweep smoke test: builds the server binary, spawns real
# coordinator and worker processes, and drives every crash drill —
# byte-identical sweeps with cluster-wide exactly-once, a worker
# SIGKILLed mid-sweep, the coordinator SIGKILLed mid-sweep and restarted
# against the same -journal-dir/-cache-dir (same sweep ID completes,
# zero re-simulations, corrupt journal lines quarantined), and a
# late-joining worker registering into a workerless coordinator then
# draining out on SIGTERM. -count=1 keeps the processes honest.
cluster:
	$(GO) test -count=1 -v -run 'TestClusterE2E' ./cmd/hbserved

# Sampled-vs-full validation across all nine workload models: the
# interval sampler must cut timed measure-phase cycles at least 10x
# while keeping IPC within 2% of exhaustive simulation. (CI runs the
# -short subset — best- and worst-error models — on every push; this
# full sweep is the release gate.)
sample:
	$(GO) test -count=1 -v -run TestSampledVsFull -timeout 20m ./internal/sim

# Golden-output corpus: SHA-256 digests of every quick figure table,
# one fixed hbsweep CSV, and the hashed Results of the sim identity
# suites' configs must match testdata/golden/. Regenerate only for a
# deliberate semantics change: go test -run TestGolden -update .
golden:
	$(GO) test -count=1 -run TestGolden .

# Production Go line count: every non-test .go file under internal/ and
# cmd/, excluding the cmd/hbbench benchmark module. Design changes that
# delete a duplicate path quote it before and after.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'cmd/hbbench/*' -print0 | xargs -0 cat | wc -l

# Run the simulation service locally with sensible dev defaults.
serve:
	$(GO) run ./cmd/hbserved -addr :8080 -cache-dir $${HBCACHE_DIR:-$$HOME/.cache/hbcache}

verify: build vet fmt race test
	@echo "verify: OK"

# Record→replay conformance: the binary trace format must be lossless
# (every workload replays instruction-for-instruction, same FNV stream
# hash) and trace-backed runs must be bit-identical to live-generator
# runs through every execution path — prewarm modes, the prewarm
# cache, batch lanes, sampling, snapshot resume, the runner's cache key,
# and the service's upload/resolve endpoints. -short trims the 9x3 matrix for CI; the
# full cross runs under plain `make test`.
trace:
	$(GO) test -count=1 -v -short -run 'Trace' ./internal/workload ./internal/check ./internal/sim ./internal/runner ./internal/service

# Coverage over the full module, ratcheted: the build fails if total
# statement coverage falls below COVER_MIN (current total minus half a
# point of slack — raise the floor when coverage rises, never lower it
# to admit a regression). cover.out feeds `go tool cover -html` and the
# CI artifact.
COVER_MIN ?= 74.3
cover:
	$(GO) test -shuffle=on -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,""); print $$NF}'); \
	echo "total statement coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' \
		|| { echo "cover: total $$total% fell below the $(COVER_MIN)% floor"; exit 1; }

# Short-budget native fuzzing: the whole simulator under invariant
# checking, the sealed-record codec, the binary trace decoder (decode of
# adversarial bytes must classify the error or round-trip, never
# panic), the closed-form region sweep against its per-touch
# reference, and the stream tape's encoding (arbitrary records round-trip
# exactly up to the first one it cannot hold, where the tape ends). Go allows one -fuzz pattern per invocation, so the targets
# run back to back. FUZZTIME bounds each run (CI uses 30s); found
# crashers land in the package's testdata/fuzz and re-run as regular
# tests forever.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRunContext -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzSweep -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzTape -fuzztime $(FUZZTIME) ./internal/sim

# Benchmark run: BENCH selects the pattern, BENCH_COUNT the repetitions
# (use BENCH_COUNT=10 with benchstat for before/after comparisons). The
# raw output lands in bench.out and a machine-readable summary —
# ns/op, allocs/op, insts/sec, plus any custom metrics — is written to
# BENCH_<short-sha>.json for tracking across commits. Exactly one
# BENCH_*.json baseline is tracked; benchjson prints a one-line
# configs/s/core comparison against it (report only; CI's bench-batch
# job applies the soft 10% gate). A fresh checkout gives every file
# the same mtime, so "newest" cannot be told apart: with two tracked
# baselines the target stops rather than pick one.
BENCH ?= .
BENCH_COUNT ?= 1
bench:
	@n=$$(git ls-files 'BENCH_*.json' | wc -l); if [ "$$n" -gt 1 ]; then \
		echo "bench: $$n BENCH_*.json baselines are tracked; keep exactly one (git rm the others)" >&2; exit 1; fi
	$(GO) test -run '^$$' -bench='$(BENCH)' -benchmem -count=$(BENCH_COUNT) | tee bench.out
	@sha=$$(git rev-parse --short HEAD); \
	base=$$(git ls-files 'BENCH_*.json'); \
	$(GO) run ./cmd/benchjson -commit $$sha $${base:+-baseline $$base} < bench.out > BENCH_$$sha.json; \
	echo "wrote BENCH_$$sha.json"

# The repository benchmark (cmd/hbbench, its own Go module): one run of
# workload W — figures-quick, sweep-b16, serve-mixed or cluster-sweep —
# at the BENCHMARK.json length. SEED and TRACE=1 (the per-layer traced
# run) pass through. Build output stays under .bench_build/.
W ?= figures-quick
SEED ?= 1
TRACE ?= 0
hbbench:
	bash cmd/hbbench/bench.sh --workload $(W) --seed $(SEED) --seconds 15 --trace $(TRACE)

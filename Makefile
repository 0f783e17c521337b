# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

# every Fuzz* target in the tree, as "package target" pairs
FUZZ_TARGETS = \
	internal/sfc:FuzzHilbertRoundTrip \
	internal/sfc:FuzzPermutationBijection \
	internal/sfc:FuzzVectorPermutationRoundTrip \
	internal/cfloat:FuzzSplitMergeRoundTrip \
	internal/cfloat:FuzzComplexMVMViaFourReal \
	internal/cfloat:FuzzGemvBlocked \
	internal/cfloat:FuzzAxpy \
	internal/precision:FuzzF16RoundTrip \
	internal/precision:FuzzBF16RoundTrip \
	internal/tlrio:FuzzOpenPaged \
	internal/svd:FuzzDecompose \
	internal/mddserve:FuzzSubmit

FUZZTIME ?= 10s

.PHONY: all build quickstart vet test race race-stress cpu-identity integration fuzz bench report report-check bench-e2e bench-e2e-compare lint repolint vuln cover

all: vet build quickstart test

build:
	$(GO) build ./...

# README's first command, executed (CI test job runs it after the build)
quickstart:
	$(GO) run ./examples/quickstart

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# concurrency stress tests (TestStress*, skipped under -short): sharded
# scheduler with mid-flight revocation, concurrent MDC fan-out, one
# TimeOperator under two solvers, the four TLR-MVM products on one
# shared matrix, streamed products sharing one quarter-budget tile store,
# and the mddserve load tests at the repo root; the cancellation and
# wakeup tests (TestCancel*) of mddserve, mddclient and the shard runner,
# the two mddserve tests a lock held across a wait fails
# (TestStreamFollowsRunningJob, TestFailedBuildIsRebuilt), whose waits
# are bounded, and mddserve's concurrent cold builds on one shared
# survey (TestColdBuildSharesSurvey) — run repeatedly under the race
# detector
race-stress:
	$(GO) test -race -count=2 -run '^(TestStress|TestCancel|TestStreamFollowsRunningJob$$|TestFailedBuildIsRebuilt$$|TestColdBuildSharesSurvey$$)' ./ ./internal/batch/ ./internal/mdc/ ./internal/opstore/ ./internal/tlr/ ./internal/mddserve/ ./internal/mddclient/

# worker-count bit-identity where GOMAXPROCS is not the host's: every
# compressor's build at 1, 2 and 4 workers, the S / Sᴴ stages
# against the channel-at-a-time reference at 1, 2, 4 and 8, the LSQR
# step of FreqOperator and whole solves against their composed route at
# 1, 2, 4 and 8, the time-domain solve against the frequency-domain
# solve plus one synthesis (dense and TLR kernels),
# store-backed products against in-memory ones at three budgets, and the
# synthesized survey (K, Rtrue, P−) against its pair-by-pair evaluation
# at 1, 2 and 4 workers, on one and on four Ps
cpu-identity:
	$(GO) test -race -cpu 1,4 -run '^TestCompressAccuracyAllMethods$$' ./internal/tlr/
	$(GO) test -race -cpu 1,4 -run '^(TestTimeStagesMatchReference|TestFreqOperatorStepMatchesComposition|TestSolveStepRouteMatchesComposed)$$' ./internal/mdc/
	$(GO) test -race -cpu 1,4 -run '^TestInvertTimeDomainIsFrequencySolvePlusSynthesis$$' ./internal/mdd/
	$(GO) test -race -cpu 1,4 -run '^TestStreamedProductsBitIdentical$$' ./internal/opstore/
	$(GO) test -race -cpu 1,4 -run '^TestGenerateMatchesReference$$' ./internal/seismic/

# serving-layer integration suite: typed client against a live
# in-process mddserve instance (submit/poll/stream/cancel, backpressure,
# chaos-over-HTTP differential)
integration:
	$(GO) test -race -run '^TestServeSuite' -v ./

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "== $$pkg $$target"; \
		$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) ./$$pkg/; \
	done

# the per-package microbenchmarks, one iteration each — a smoke run;
# wall-clock numbers that count come from bench-e2e below
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# ---- paper-relative report (mirrors the CI report job) ----
# Deterministic facts — model cycles and bytes, layout sizes, failover,
# cache and allocation counts — are assertions in `go test ./...`
# (TESTING.md, "Where each deterministic fact is asserted"). report
# regenerates REPORT.md — every published row of the paper beside the
# model's, with Δ and tolerance — and report-check diffs the committed
# file against a fresh run (~35 s: -full inverts the laptop-scale
# survey), so a model change that moves a published comparison cannot
# land without the report showing it.

report:
	$(GO) run ./cmd/paperrun -full -o REPORT.md

report-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		$(GO) run ./cmd/paperrun -full -o "$$tmp" && diff -u REPORT.md "$$tmp"

# ---- end-to-end memory-wall benchmark (BENCHMARK.json, bench/README.md) ----
# bench-e2e runs one workload the way the benchmark driver does.
# bench-e2e-compare checks two result sets (A = before, B = after; files
# of runs collected with `bash bench/run.sh … --out file`) against the
# BENCHMARK.json bounds.

W ?= solve-dram
SEED ?= 1
TRACE ?= 0

bench-e2e:
	bash bench/run.sh --workload $(W) --seed $(SEED) --seconds 16 --trace $(TRACE)

bench-e2e-compare:
	$(GO) run ./bench -repeat $(A) $(B)

# ---- static analysis / vulnerability scan (mirrors CI lint/vuln jobs) ----
# staticcheck and govulncheck are fetched by CI; locally they are used
# only if already on PATH. repolint is this repo's own analyzer suite
# (TESTING.md, "Static analysis suite") and needs no network: one
# whole-module run covers every analyzer, test variants included.
# `gofmt -l .` must list no file, analyzer fixtures included. The
# s390x cross-vet type-checks the big-endian side of tlrio.LoadTile,
# which no host here executes; the arm64 one the pure-Go Gemv and Axpy
# loops (amd64 runs cfloat's SSE assembly instead) and the LSQR loops for a
# target that fuses multiply-adds, where they are not run either.

REPOLINT_SRCS := $(wildcard cmd/repolint/*.go internal/analysis/*.go)

bin/repolint: $(REPOLINT_SRCS)
	$(GO) build -o bin/repolint ./cmd/repolint

repolint: bin/repolint

lint: vet bin/repolint
	test -z "$$(gofmt -l .)"
	GOARCH=s390x $(GO) vet ./internal/tlrio/ ./internal/opstore/ ./internal/tlr/
	GOARCH=arm64 $(GO) vet ./internal/cfloat/ ./internal/lsqr/
	./bin/repolint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only" \
		     "(install: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed" \
		     "(install: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4)"; \
	fi

# ---- coverage (mirrors the CI cover job; floor documented in TESTING.md) ----

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

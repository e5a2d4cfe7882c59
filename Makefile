GO ?= go

.PHONY: all build vet lint fmt-check test race alloc-guard stress fuzz-smoke bench-smoke cli-smoke profile loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's own static-analysis suite (cmd/g5kvet): five
# analyzers enforcing the simulator's determinism and concurrency
# invariants — walltime, globalrand, maporder, atomicfield, baregoroutine —
# over every non-test source. A finding fails the build unless a
# //g5k:allow <analyzer> <reason> directive suppresses it; reasonless or
# mistargeted directives are findings themselves.
lint:
	$(GO) run ./cmd/g5kvet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-guard runs the allocation guards, the tests named *Alloc*: a ticker
# fire allocates nothing; a warmed CI build's dispatch and completion
# allocate only the Build its job keeps; a submission allocates its Job and
# node slice; a cluster sweep handed its last reports back allocates
# nothing; a status grid costs as much with 10 retained builds per job as
# with 200; a warmed scheduler poll allocates nothing, whether no spec is
# due or every due spec defers; a Reference API store renders nothing until
# read, a warmed archived version renders with as many allocations at 4x
# the testbed as at 1x, and a version's body renders once and a second
# read of it allocates nothing; a grid archive's version vector allocates
# only its result. They skip under the race detector, whose bookkeeping is not
# what they count, so this runs without it.
ALLOC_GUARD_PKGS = ./internal/simclock ./internal/oar ./internal/core ./internal/checks \
	./internal/status ./internal/ci ./internal/sched ./internal/refapi ./internal/intel
alloc-guard:
	$(GO) test -run Alloc $(ALLOC_GUARD_PKGS)

# stress runs the gateway's concurrency stress test at full size under the
# race detector: 16 clients hammering every endpoint family while the
# campaign advances underneath them.
stress:
	GATEWAY_STRESS=1 $(GO) test -race -count=1 -run 'TestStress|TestInventoryETagUnderChurn' ./internal/gateway

# fuzz-smoke gives each of the repository's fuzz targets ten seconds:
# AppendIndent, the single-pass indenter every JSON body goes through
# (internal/wire), against encoding/json's indenter on whatever valid JSON
# the fuzzer finds; the splice (internal/wire), where a Fragment fills a
# slot of an envelope at any depth, against AppendIndent of the envelope
# with the fragment's JSON inline; etagMatches, the If-None-Match comparison every
# conditional GET goes through (internal/gateway), against its contract on
# arbitrary header text; the two parsers of operator-written text,
# oar.ParseRequest (resource requests, also off the wire) and
# faults.ParseSchedule (disaster schedules), which must never panic and
# must read back what they accepted once it is printed in their own syntax;
# and the OAR scheduler on operation streams read from the fuzzer's bytes,
# held after every operation to the scanning reference, a recount of its
# dense state and the jobs' own history (one input runs hundreds of
# operations, so minimizing a new one is capped at a second); and the
# gateway's GET routes on its static two-day fixture, with generated route
# suffixes, {site} segments and query parameters, which must never panic
# or answer 5xx.
# The checked-in corpora alone run with every `go test`; a new failing input
# is written to the package's testdata/fuzz/ for the fix to keep.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAppendIndent -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzSplice -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzETagMatches -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzGatewayGET -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzParseRequest -fuzztime 10s ./internal/oar
	$(GO) test -run '^$$' -fuzz FuzzSchedulerMatchesScan -fuzztime 10s -fuzzminimizetime 1s ./internal/oar
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime 10s ./internal/faults

# bench-smoke runs every micro-benchmark under internal/ exactly once: a
# benchmark that only compiles can still rot at runtime (a b.Fatal, a
# panic), and nothing else executes them.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# cli-smoke runs the programs no test runs: g5ktest's monolithic, fleet and
# federated modes for one simulated week each, checknode's sweep of one
# healthy cluster, and every examples/ program. Each must exit 0; their
# output is discarded. The binaries go to $(SMOKE_DIR) (git-ignored).
SMOKE_DIR ?= smoke
cli-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/ ./cmd/g5ktest ./cmd/checknode ./examples/...
	$(SMOKE_DIR)/g5ktest -quiet -weeks 1 > /dev/null
	$(SMOKE_DIR)/g5ktest -seeds 2 -weeks 1 > /dev/null
	$(SMOKE_DIR)/g5ktest -federated -weeks 1 > /dev/null
	$(SMOKE_DIR)/checknode -cluster griffon > /dev/null
	for ex in examples/*/; do $(SMOKE_DIR)/$$(basename $$ex) > /dev/null || exit 1; done

# profile runs the two campaign shapes — 10 monolithic weeks, 3 federated
# weeks — under g5ktest's -cpuprofile/-memprofile on one processor (the
# setting g5kbench measures at), leaves the binary and the four profiles in
# $(PROFILE_DIR) and prints the top of each CPU profile, the top of each
# allocation profile by bytes and by objects, and what each shape allocates
# per simulated week — the allocation diet's gauge (the memory profiles are
# sampled, and include g5ktest's closing status page).
PROFILE_DIR ?= profiles
PPROF = $(GO) tool pprof -top -nodecount=12
# $(call allocs-per-week,label,profile,weeks)
define allocs-per-week
	@mb=$$($(PPROF) -sample_index=alloc_space -unit=MB $(PROFILE_DIR)/g5ktest $(2) 2>/dev/null | awk '/ total$$/ {sub("MB", "", $$(NF-1)); print $$(NF-1)}'); \
	objects=$$($(PPROF) -sample_index=alloc_objects $(PROFILE_DIR)/g5ktest $(2) 2>/dev/null | awk '/ total$$/ {print $$(NF-1)}'); \
	awk -v mb=$$mb -v objects=$$objects 'BEGIN {printf "$(1): %.2f MB and %.0f objects per simulated week ($(3) weeks, %s MB in all)\n", mb/$(3), objects/$(3), mb}'
endef
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/g5ktest ./cmd/g5ktest
	GOMAXPROCS=1 $(PROFILE_DIR)/g5ktest -quiet -weeks 10 -cpuprofile $(PROFILE_DIR)/mono.cpu.pprof -memprofile $(PROFILE_DIR)/mono.mem.pprof > /dev/null
	GOMAXPROCS=1 $(PROFILE_DIR)/g5ktest -federated -weeks 3 -cpuprofile $(PROFILE_DIR)/fed.cpu.pprof -memprofile $(PROFILE_DIR)/fed.mem.pprof > /dev/null
	$(PPROF) $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/mono.cpu.pprof
	$(PPROF) $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/fed.cpu.pprof
	$(PPROF) -sample_index=alloc_space $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/mono.mem.pprof
	$(PPROF) -sample_index=alloc_objects $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/mono.mem.pprof
	$(PPROF) -sample_index=alloc_space $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/fed.mem.pprof
	$(PPROF) -sample_index=alloc_objects $(PROFILE_DIR)/g5ktest $(PROFILE_DIR)/fed.mem.pprof
	$(call allocs-per-week,mono,$(PROFILE_DIR)/mono.mem.pprof,10)
	$(call allocs-per-week,fed,$(PROFILE_DIR)/fed.mem.pprof,3)

# loc prints the Go line counts of every internal/* and cmd/* package,
# non-test and test files apart (plain `wc -l`, comments and blanks
# included) — the figure ROADMAP's size targets and every simplicity PR's
# CHANGES entry quote.
loc:
	@printf '%-22s %9s %9s\n' package non-test test; \
	for d in internal/* cmd/*; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		t=$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-22s %9d %9d\n' $$d $$n $$t; \
	done | awk '{print; n += $$2; t += $$3} END {printf "%-22s %9d %9d\n", "total", n, t}'

check: build vet lint fmt-check race alloc-guard stress fuzz-smoke bench-smoke cli-smoke

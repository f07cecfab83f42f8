GO ?= go

# BENCH_ID names the combined trajectory file bench-json writes
# (BENCH_$(BENCH_ID).json); bump it per PR so trajectories accumulate.
# BENCH_BASE is the previous snapshot bench-diff gates against.
BENCH_ID ?= pr12
BENCH_BASE ?= pr10

.PHONY: verify verify-race build vet test race bench bench-json bench-diff bench-diff-ci example-recovery docs-check scenario-smoke

# bench is part of verify as a smoke run (-benchtime 1x): benchmark code
# must keep compiling and running between trajectory snapshots.
verify: build vet test bench docs-check scenario-smoke

# verify-race runs the full suite under the race detector — the gate for
# changes touching MDS sharding, repair/drain, or client retry
# concurrency. CI (.github/workflows/ci.yml) runs both verify targets on
# every push and pull request.
verify-race: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# bench-json regenerates the benchmark trajectory snapshot checked in at
# the repo root: the repair and fig8b experiments, the wire-codec /
# transport microbenchmarks, the storage engine, and the MDS scale table
# (with its durable op-log rows), all in one combined JSON file.
bench-json:
	$(GO) run ./cmd/tsuebench -exp repair,fig8b,codec,storage,mds-scale -combined BENCH_$(BENCH_ID).json

# bench-diff gates the committed trajectory: the current snapshot
# (BENCH_$(BENCH_ID).json, from make bench-json) must not regress beyond
# tight same-machine tolerance against the previous one. See
# cmd/benchdiff and docs/OPERATIONS.md for how to read the output.
bench-diff:
	$(GO) run ./cmd/benchdiff -base BENCH_$(BENCH_BASE).json -new BENCH_$(BENCH_ID).json

# bench-diff-ci is the CI flavor: regenerate the trajectory on whatever
# hardware the runner provides, then diff against the committed snapshot
# with wide smoke tolerances (time/rate bands absorb hardware deltas;
# B/op and allocs/op stay gated because they are machine-independent).
bench-diff-ci:
	$(GO) run ./cmd/tsuebench -exp repair,fig8b,codec,storage,mds-scale -combined BENCH_ci.json
	$(GO) run ./cmd/benchdiff -mode smoke -base BENCH_$(BENCH_ID).json -new BENCH_ci.json
	rm -f BENCH_ci.json

# docs-check lints the documentation: every relative Markdown link must
# resolve, and every exported repair/scheduler symbol must carry godoc
# (see cmd/docscheck). Part of make verify and the CI verify job.
docs-check:
	$(GO) run ./cmd/docscheck

# scenario-smoke runs a seeded two-tenant soak (OSD kill +
# drain-cancel-resume under the race detector, every phase checkpoint
# verifying parity, epochs, acknowledged writes, and the repair ledger).
# See docs/SCENARIOS.md. Part of make verify and the CI verify job.
scenario-smoke:
	$(GO) test -race -run 'TestScenarioSmoke' -count=1 ./internal/scenario/

example-recovery:
	$(GO) run ./examples/recovery

# CI entry points. `make ci` is what .github/workflows/ci.yml runs:
# gofmt, vet, build, the full test suite under the race detector, the
# benchmark regression check against the committed BENCH_10.json record,
# the fault-campaign, record/replay, fleet control-plane, decision-trace,
# chaos/kill-restore, engine golden-equivalence, scenario-
# generator and telemetry-pipeline smoke tests, and — when the tools
# are on PATH — staticcheck and govulncheck.

GO ?= go

# MICROBENCH is the single-iteration micro-benchmark sweep both bench
# targets run: it keeps the hot-path benchmarks compiling and their
# allocs/op visible without paying for statistically stable timings.
MICROBENCH = $(GO) test -run='^$$' -bench='BenchmarkOptimize|BenchmarkControllerCycle|BenchmarkNewFrontier' -benchtime=1x ./internal/core/...

.PHONY: ci fmt vet build test race bench bench-check bench-campaign smoke-faults smoke-replay smoke-fleet smoke-trace smoke-chaos smoke-event smoke-gen smoke-telemetry lint vuln fuzz

ci: fmt vet build race bench-check smoke-faults smoke-replay smoke-fleet smoke-trace smoke-chaos smoke-event smoke-gen smoke-telemetry lint vuln

# Every Go file is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Refresh the tracked benchmark record: the micro-benchmarks, then the
# fixed-scenario suite (6 evaluated apps + eBook × 3 background loads
# under the controller, a 256-session fleet slice — plain and fully
# observed (cohort labels + concurrent scrapes + a stream subscriber,
# the telemetry-overhead cell) — and a 64-session generated population
# from internal/scenario) written to BENCH_10.json. Run on a quiet
# machine and commit the result.
bench:
	$(MICROBENCH)
	$(GO) run ./cmd/aspeo-bench -out BENCH_10.json

# Regression gate: re-run the suite and fail on >10% regression of
# calibration-normalized throughput or raw allocs/cycle against the
# committed record. The fresh measurement lands in bench-current.json
# (untracked) for inspection.
bench-check:
	$(MICROBENCH)
	$(GO) run ./cmd/aspeo-bench -check BENCH_10.json -out bench-current.json

# One fault scenario end to end at Quick fidelity: faults delivered,
# ledger populated, hardened slack bounded by the stock governors'.
smoke-faults:
	$(GO) test -run=TestFaultCampaignSmoke ./internal/experiment/

# The platform layer's acceptance path end to end: record a live run at
# full rate, round-trip the trace through the JSON wire format, replay
# it through platform/replay, and require the controller's allocation
# sequence to match cycle for cycle.
smoke-replay:
	$(GO) test -count=1 -run=TestReplayGolden ./internal/platform/replay/

# The fleet control plane end to end, under the race detector: start
# the HTTP server, submit 8 governor and 4 controller sessions over the
# API, poll every GET route while they run (the race guard for the
# single-owner device model: phones, PMUs and sysfs trees carry no
# locks), stream one, assert the rollup and /metrics, drain, and verify
# intake is closed.
smoke-fleet:
	$(GO) test -count=1 -race -run=TestFleetSmokeHTTP ./internal/fleet/

# The decision-trace determinism contract end to end: two runs of the
# same seed diff to zero divergent cycles (including across an NDJSON
# round trip, the aspeo-trace diff path), and two different seeds
# diverge at a definite first cycle with attribute deltas.
smoke-trace:
	$(GO) test -count=1 -run=TestTraceSmoke ./internal/experiment/

# Durability and chaos, under the race detector: sessions killed after a
# checkpoint restore bit-identically (session- and fleet-level golden
# tests), and a 64-session fleet under a seeded panic + checkpoint-write
# failure plan still lands every session with a consistent ledger.
smoke-chaos:
	$(GO) test -count=1 -race -run='TestKillRestore|TestFleetKillRestoreGolden|TestFleetChaosRecovery' ./internal/experiment/ ./internal/fleet/

# Engine golden equivalence, under the race detector: sessions on the
# event core's closed-form spans against the same sessions walked one
# Phone.Step at a time (controller, governor and fault-injected cells;
# summary JSON and allocation logs byte-identical), the randomized actor
# storms and interrupt polls against the test-only reference loop
# (device state, Stats and one storm's full-rate trace), and the
# event-queue ordering property tests.
smoke-event:
	$(GO) test -count=1 -race -run='TestEngineEquivalence|TestCrossBackendStormBitIdentity|TestEventQueue|TestInterruptBoundaryParity' ./internal/experiment/ ./internal/sim/

# The scenario subsystem end to end, under the race detector: the
# shipped example spec compiles to a byte-identical golden session
# stream (the aspeo-gen emission contract), and a generated 16-session
# mixed population — chains, perturbation, ad storms, bursty arrivals —
# submits through the fleet worker pool and lands every session.
smoke-gen:
	$(GO) test -count=1 -race -run='TestExampleScenarioGolden|TestScenarioFleetSmoke' ./cmd/aspeo-gen/ ./internal/fleet/

# The telemetry pipeline end to end, under the race detector: a seeded
# saturating population must report its brownout deterministically
# (byte-identical rollups across runs), and a 64-session fleet with a
# live stream subscriber must replay its captured NDJSON into the exact
# live rollup while scrapes hammer the epoch-snapshot path.
smoke-telemetry:
	$(GO) test -count=1 -race -run='TestBrownoutGolden|TestTelemetryPipelineSmoke|TestTelemetryScrapeUnderLoad' ./internal/fleet/

# staticcheck and govulncheck run when installed (CI installs them);
# locally they no-op with a note rather than failing the build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

# Short fuzz passes: the sysfs path canonicalizer, the scenario spec
# parser/compiler and the closed-form accumulator fpacc.AddK against its
# literal loop (seed corpora in the fuzz targets). Not part of `ci`: the
# CI workflow runs it as its own time-boxed step.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzClean -fuzztime=15s ./internal/sysfs/
	$(GO) test -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=15s ./internal/scenario/
	$(GO) test -run='^$$' -fuzz=FuzzAddK -fuzztime=15s ./internal/fpacc/

# The campaign-scale benchmarks (quick Table III, serial vs parallel
# with a reported speedup metric). Not part of `ci` — they simulate
# whole app sessions and take minutes on small runners.
bench-campaign:
	$(GO) test -run='^$$' -bench=BenchmarkTableIII -benchtime=1x .

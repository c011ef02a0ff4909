GO ?= go

.PHONY: build test race bench bench-warm bench-lb bench-fed bench-sweep bench-gate loadgen fmt vet fuzz-smoke smoke chaos chaos-golden risk-sim sweep ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-warm measures the receding-horizon warm-start speedup (iters/round,
# cold vs warm) at 50/200/500 markets — the DESIGN.md §9 numbers.
bench-warm:
	$(GO) test -run='^$$' -bench=RecedingHorizonColdVsWarm -benchtime=1x ./internal/portfolio/

# bench-lb regenerates the LB data-plane baseline (gate benchmarks + loadgen
# max-RPS) into BENCH_lb.json — run after an intentional data-plane change.
bench-lb:
	sh scripts/bench_lb.sh

# bench-fed regenerates the federated-planner scale artifact (8 regions x
# 10 AZs x 125 types = 10,000 markets over 80 shards, plus the 2/4/8-region
# scaling curve) into BENCH_fed.json — the DESIGN.md §13 numbers.
bench-fed:
	sh scripts/bench_fed.sh

# bench-sweep regenerates the scenario-lab throughput baseline (engine
# scaling w1..w8 + the real 1,000-cell quick chaos-suite sweep) into
# BENCH_sweep.json — the DESIGN.md §15 numbers. Fails if the engine's w1/w8
# scaling drops below 6x.
bench-sweep:
	sh scripts/bench_sweep.sh

# bench-gate reruns the LB and sweep benchmarks and fails on a >20% ns/op
# regression against the checked-in baselines (what CI's bench-gate job runs).
bench-gate:
	sh scripts/bench_lb.sh /tmp/BENCH_lb.current.json
	$(GO) run ./scripts/benchdiff -baseline BENCH_lb.json -current /tmp/BENCH_lb.current.json -threshold 1.20
	sh scripts/bench_sweep.sh /tmp/BENCH_sweep.current.json
	$(GO) run ./scripts/benchdiff -baseline BENCH_sweep.json -current /tmp/BENCH_sweep.current.json -threshold 1.20

# loadgen drives the closed-loop harness against the raw routing hot path —
# the quick million-RPS sanity check.
loadgen:
	$(GO) run ./cmd/spotweb-load -mode route -backends 16 -sessions 1024 -duration 3s

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# smoke boots spotwebd for ~15s, drives traffic through the LB, asserts the
# /metrics and /events endpoints, and checks clean SIGTERM shutdown.
smoke:
	sh scripts/smoke.sh

# fuzz-smoke runs every Fuzz target of every package for 30s each. Targets
# are discovered with go test -list: each package's names precede its "ok"
# line, which carries the import path.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } \
		/^ok/ { for (i = 0; i < n; i++) print $$2, t[i] } { n = 0 }' | \
	while read -r pkg t; do \
		echo "==> $$pkg $$t"; \
		$(GO) test "$$pkg" -run='^$$' -fuzz="^$$t$$" -fuzztime=30s || exit 1; \
	done

# chaos runs the built-in fault-injection suite on the simulator and fails if
# any resilience report deviates from the checked-in golden files.
chaos:
	$(GO) run ./cmd/spotweb-chaos -suite all -quick -seed 42 -check cmd/spotweb-chaos/testdata/golden

# chaos-golden regenerates the golden reports after an intentional change.
chaos-golden:
	$(GO) run ./cmd/spotweb-chaos -suite all -quick -seed 42 -out cmd/spotweb-chaos/testdata/golden

# sweep runs a small scenario-lab grid (3 scenarios x 4 seeds x 3 variants,
# CI-sized cells) and prints the artifact — the quick interactive entry point;
# see cmd/spotweb-sweep -help for the full grid surface.
sweep:
	$(GO) run ./cmd/spotweb-sweep -scenarios storm,flap,late-warning -seeds 4 \
		-variants default,sentinel,risk -quick -workers 4

# risk-sim runs the adaptive-vs-oracle-prior comparison: both catalog-lie
# scenarios, scored reports to stdout (the Adaptive section carries the SLO
# gain / cost delta / dominance verdict; see DESIGN.md §12).
risk-sim:
	$(GO) run ./cmd/spotweb-chaos -suite stale-catalog -quick -seed 42
	$(GO) run ./cmd/spotweb-chaos -suite adversarial-prior -quick -seed 42

# ci mirrors .github/workflows/ci.yml so failures reproduce locally.
ci: build vet fmt test race fuzz-smoke smoke chaos

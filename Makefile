# Build/verify entry points. `make race` is the gate that matters most
# since the experiment engine runs independent simulation worlds on
# concurrent workers.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke profile reproduce clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check everything: the parallel experiment engine fans pooled
# simulation worlds out across concurrent workers, so the whole module
# rides under the detector, not just the packages it touches directly.
race:
	$(GO) test -race ./...

# gofmt drift fails the target: `gofmt -l` lists every unformatted file
# (testdata fixtures included) and prints nothing on a clean tree.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (see LINT.md): determinism, Reset/
# Snapshot completeness, annotated zero-alloc hot paths, park/timer
# discipline, the fabric.Link lifecycle contract (fabriccontract), and
# waiver-drift detection.
# Packages are analyzed on a worker pool; -time reports per-analyzer
# wall-clock so suite growth stays visible.
lint:
	$(GO) run ./cmd/ntblint -time ./...

# Host-side simulator speed benchmarks (wall-clock, allocs/op).
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/pcie ./internal/driver ./internal/sim ./internal/core

# CI benchmark gate, three steps:
#  1. one-iteration pass over every benchmark — catches benchmarks that
#     panic or regress to compile errors without paying for timing runs;
#  2. the gated benchmarks at a pinned -benchtime (so one-time world
#     construction amortises identically run to run), checked against
#     the committed allocs/op and B/op ceilings and throughput floors in
#     bench_baseline.json;
#  3. a fast reproduce run that writes BENCH.json: per-figure wall
#     clock, worlds/s, pool hit rate, the interleaved snapshot-fork A/B
#     (-fork-ab), and the step-2 allocs/op numbers.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/pcie ./internal/driver ./internal/sim ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkWorldPut1M$$|BenchmarkWorldSpawnTeardown$$|BenchmarkFlowNetChurn$$' -benchmem -benchtime 500x \
		./internal/core ./internal/pcie | tee bench_gate.out
	$(GO) test -run xxx -bench 'BenchmarkSimEventThroughput$$|BenchmarkLadderQueueChurn$$' -benchmem -benchtime 2000x \
		./internal/sim | tee -a bench_gate.out
	$(GO) test -run xxx -bench 'BenchmarkScaleWorld256$$' -benchmem -benchtime 10x \
		./internal/bench | tee -a bench_gate.out
	$(GO) test -run xxx -bench 'BenchmarkSwitchWorld$$' -benchmem -benchtime 100x \
		./internal/bench | tee -a bench_gate.out
	$(GO) test -run xxx -bench 'BenchmarkWorldFork$$' -benchmem -benchtime 200x \
		./internal/bench | tee -a bench_gate.out
	$(GO) run ./cmd/benchgate -baseline bench_baseline.json -input bench_gate.out
	$(GO) run ./cmd/reproduce -skip-ablations -fork-ab 8 -bench-json BENCH.json -bench-input bench_gate.out > /dev/null
	rm -f bench_gate.out

# Profile a full reproduce run; inspect with `go tool pprof cpu.pprof`
# (or mem.pprof for the allocation profile).
profile:
	$(GO) run ./cmd/reproduce -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null

# Regenerate the archived experiment output.
reproduce:
	$(GO) run ./cmd/reproduce > reproduce_output.txt

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof

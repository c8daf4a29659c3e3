# Convenience targets over dune; `make check` is the pre-commit gate.

.PHONY: all build test test-san bench bench-tlb bench-ipc bench-span bench-dev \
	bench-verif bench-smp bench-slo bench-all perf-smoke perf-pairs check trace obs \
	profile top san monitor verify clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 suite re-run with the sanitizer armed (shadow permission map
# checking every physical access); any violation fails the run.
test-san:
	SAN=1 dune runtest --force

bench:
	dune exec bench/main.exe -- all

# Software TLB/IOTLB: walk-vs-hit cost, IPC and ixgbe with caching on
# vs off, and the hot-vs-cold bit-identity replay.
bench-tlb:
	dune exec bench/main.exe -- tlb

# IPC ping-pong with the rendezvous fastpath on vs off: host time per
# round, permission-map operations and allocation per rendezvous.
# Writes BENCH_ipc.json.
bench-ipc:
	dune exec bench/main.exe -- ipc

# Span layer over the kv-store demo workload: span and causal-edge
# counts, cycle-model bit-identity, merged latency quantiles.  Writes
# BENCH_span.json.
bench-span:
	dune exec bench/main.exe -- span

# Device-model backend interchange and hostile-mode resilience: fault-free
# virtio-vs-ixgbe delivery identity, kv-store bit-identity across block and
# NIC backends, seeded hostile sweeps with bounded delivery loss and a clean
# driver lint.  Writes BENCH_dev.json.
bench-dev:
	dune exec bench/main.exe -- dev

# Incremental verification: full-suite discharge, one transition, then
# the dirty-set re-check against an oracle full re-discharge.  Writes
# BENCH_verif.json (verdict identity, re-check fraction, >= 5x speedup).
bench-verif:
	dune exec bench/main.exe -- verif

# Online SLO monitor over the kv workload: the monitor's cost over
# flight-only in rotating rounds (median <= 15 points), zero drops with exact
# rollup accounting and cycle identity, streaming-vs-post-mortem
# quantile agreement, and exemplar coverage of every injected slow
# request.  Writes BENCH_slo.json.
bench-slo:
	dune exec bench/main.exe -- slo

# Broken-up big kernel lock: 1->8 CPU scaling curve on the kv IPC
# workload under both lock regimes, plus the big-vs-fine on/off oracle
# (bit-identical returns, scheduling decisions and abstract state).
# Writes BENCH_smp.json (oracle identity; >= 2.5x fine-grained 8-CPU
# speedup floor).
bench-smp:
	dune exec bench/main.exe -- smp

# Every benchmark that writes a BENCH_*.json artifact, then the merge:
# `bench report` folds them into BENCH_summary.json, reports host-time
# fields that moved past their IQR and deterministic fields that changed
# against the previous summary, and enforces the hard floors (cycle
# identity, TLB load reduction, fastpath map-op reduction, ...).
bench-all:
	dune exec bench/main.exe -- obs
	dune exec bench/main.exe -- san
	dune exec bench/main.exe -- tlb
	dune exec bench/main.exe -- ipc
	dune exec bench/main.exe -- span
	dune exec bench/main.exe -- dev
	dune exec bench/main.exe -- verif
	dune exec bench/main.exe -- smp
	dune exec bench/main.exe -- slo
	dune exec bench/main.exe -- report

# The repo benchmark (perfbench/, BENCHMARK.json) on every workload,
# untraced and traced, for 2 s each on the held-out seed.  Gates only
# what the benchmark itself checks — every correctness check and the
# traced = untraced simulated-time identity — never a number.
perf-smoke:
	dune exec perfbench/main.exe -- --workload all --seconds 2 --seed 7919

# Paired comparison of the repo benchmark: BASE (a git revision, exported
# with git archive into a directory under $$TMPDIR) against the working tree, PAIRS
# alternating-order pairs of full-length runs of one WORKLOAD and SEED.
# Prints each end-to-end metric's median, quartiles and wins per side,
# and whether the change is a gain or worse than the metric's bound.
# Not part of `check`: 10 pairs of 20 s runs take about 8 minutes.
BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?= mm
SEED ?= 1

perf-pairs:
	dune build tools/perf_pairs.exe
	./_build/default/tools/perf_pairs.exe --base $(BASE) --pairs $(PAIRS) \
	  --workload $(WORKLOAD) --seed $(SEED)

# Pre-commit gate: build, tier-1 tests (plain and with the sanitizer
# armed, so the TLB-coherence, scheduler and span-balance lints run
# over every suite; `dune runtest` also runs the CLI rules in bin/dune:
# the sanitizer's clean run and every plant of the plant table, each
# caught by the report bin/plants.expected pins, the scripted trace
# workload's disabled-vs-flight identity, the verifier's verdicts that
# bin/verify.expected pins, the profiler's request-path
# reconstruction over the kv-store
# demo, top's accounting, the trace CLI's per-kind --filter and
# --sample admission paths and its Chrome exporter), the fastpath
# on/off oracle, the headline IPC table, the SLO monitor (a compliant
# run must exit 0), the incremental verifier (dirty-set re-check
# bit-identical to a full oracle within the 20% budget; the stale-proof
# plant caught by exactly its rule), and the obs + span + device +
# verif + smp (the big-lock/fine-grained scheduler oracle) + slo
# benches + regression report (bit-identity and performance floors,
# including the <= 100% traced kv overhead with zero drops and exact
# accounting, the >= 5x incremental speedup, the >= 2.5x fine-grained
# 8-CPU scaling and the <= 15-point monitor-over-flight delta with
# streaming/post-mortem quantile agreement and full exemplar coverage,
# over the BENCH_*.json set), and the repo benchmark's smoke run.
check:
	dune build && dune runtest && SAN=1 dune runtest --force \
	&& dune exec test/test_fastpath.exe \
	&& dune exec bench/main.exe -- table3 \
	&& dune exec bin/atmo_cli.exe -- monitor --workload kv --requests 64 \
	&& dune exec bin/atmo_cli.exe -- verify --incremental \
	&& dune exec bin/atmo_cli.exe -- verify --plant stale-proof \
	&& dune exec bench/main.exe -- obs \
	&& dune exec bench/main.exe -- span \
	&& dune exec bench/main.exe -- dev \
	&& dune exec bench/main.exe -- verif \
	&& dune exec bench/main.exe -- smp \
	&& dune exec bench/main.exe -- slo \
	&& dune exec bench/main.exe -- report \
	&& $(MAKE) perf-smoke

trace:
	dune exec bin/atmo_cli.exe -- trace

obs:
	dune exec bench/main.exe -- obs

# Post-mortem profiler and cycle-accounting tables over the kv-store
# demo workload.
profile:
	dune exec bin/atmo_cli.exe -- profile

top:
	dune exec bin/atmo_cli.exe -- top

# Full sanitizer demonstration: the bin/dune rules under the san alias.
# The clean workload (including the seeded hostile device sweep) must
# print bin/san.expected, and every plant `atmo san --plant` accepts (the
# plant table, lib/workloads/plants.ml) must be detected with the typed
# report bin/plants.expected pins: the surgical ones (driver, watchdog
# and table-state plants) with no other report filed.
san:
	dune build @bin/san
	cat _build/default/bin/san.out _build/default/bin/plants.out

# Online SLO monitor over the kv workload: windowed rollup table, SLO
# verdicts (the exit code is the compliance verdict), watchdog
# findings, and slow-request exemplars on breach.
monitor:
	dune exec bin/atmo_cli.exe -- monitor --workload kv --requests 64

# Obligation discharge via the CLI: the full suite, the incremental
# dirty-set re-check after one transition (verdicts must be
# bit-identical to the full oracle, within the 20% re-check budget),
# and the stale-proof plant (dropped dirty marks must be caught by
# exactly the stale-proof lint).
verify:
	dune exec bin/atmo_cli.exe -- verify
	dune exec bin/atmo_cli.exe -- verify --incremental
	dune exec bin/atmo_cli.exe -- verify --plant stale-proof

clean:
	dune clean

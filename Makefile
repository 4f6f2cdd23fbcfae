# Convenience targets for the cddpd tree.  Everything here is a thin
# wrapper over dune; CI and humans should get identical behaviour.
#
#   make build        compile everything
#   make check        tier-1 gate: build + tests + lint
#   make lint         typed cddpd-lint over lib/ bin/ bench/ tools/,
#                     ratcheted against lint-baseline.json
#   make lint-update-baseline
#                     regenerate lint-baseline.json after burning down
#                     or adding audited waivers
#   make bench-smoke  quick perf sanity: compares with the committed
#                     BENCH_*.json baselines, writes only under _build/bench/
#   make bench-update regenerate the committed BENCH_*.json baselines
#   make serve-smoke  replay a canned trace through `cddpd serve --input`
#                     and assert the cddpd-serve/3 JSON status
#   make perf-smoke   one-second traced runs of the serve benchmark
#                     (perfbench/) on every workload: its correctness
#                     gates, and its deterministic counters against
#                     PERF_COUNTERS.json
#   make cli-smoke    bad command lines and bad statements end in usage
#                     errors and skipped statements, never in a crash

DUNE ?= dune

.PHONY: all build check test lint lint-update-baseline bench-smoke bench-update bench serve-smoke perf-smoke cli-smoke clean

all: build

build:
	$(DUNE) build

# Tier-1 gate: full build plus the whole test suite, plus lint.
check:
	$(DUNE) build
	$(DUNE) runtest
	$(DUNE) build @lint

test: check

# Static analysis (see docs/LINTING.md).  The @lint alias type-checks
# the tree first so every module has a fresh .cmt artifact, then runs
# the typed engine and enforces the waived-finding ratchet against
# lint-baseline.json.
lint:
	$(DUNE) build @lint

# After fixing findings (baseline shrinks) or adding audited waivers
# (baseline grows — justify it in the PR), refresh the committed
# baseline.  CI fails if the checked-in file lags behind reality in the
# growth direction.
lint-update-baseline:
	$(DUNE) build @check tools/lint/cddpd_lint.exe
	$(DUNE) exec tools/lint/cddpd_lint.exe -- --root . --write-baseline lint-baseline.json

# Quick perf sanity: micro-benchmarks + a timed Problem.build and every
# gated suite.  It compares and never rewrites: each suite writes its result to $(BENCH_OUT)/BENCH_<suite>.json,
# so the tree stays clean, and fails unless that result equals the committed
# BENCH_<suite>.json leaf by leaf — same keys, same array lengths, every
# value equal as printed — except the measured leaves: wall times, their
# ratios, the core count and an experiments arm's status (bench/main.ml,
# [measured]).  So the figure digest (the paper-fidelity gate), the
# configspace cells, the solver state counts and every serve and ingest
# counter must reappear exactly.  The serve and ingest suites also carry
# their own hard gates: per-window digests must match between each suite's
# two arms, stable-phase windows must hit the what-if-call reduction floor,
# and the ingest path must clear its throughput floor over the reference path.
BENCH_OUT = _build/bench
BENCH_SUITES = micro solvers experiments configspace serve ingest
BENCH_BASELINES = configspace experiments ingest serve solvers

bench-smoke:
	$(DUNE) exec bench/main.exe -- --quick $(BENCH_SUITES)

# The only target that writes the committed baselines: bench-smoke, then,
# once every gate has passed, a copy of its results over them.  A change
# that moves a gated leaf on purpose reads the moved leaves bench-smoke
# names (every one, up to 20 and a count of the rest), then deletes that
# baseline (the suite is then not gated) and says why.
bench-update: bench-smoke
	cp $(BENCH_BASELINES:%=$(BENCH_OUT)/BENCH_%.json) .

bench:
	$(DUNE) exec bench/main.exe -- all

# End-to-end smoke of the online advisor (docs/SERVE.md): generate a
# short drifting trace, serve it once, and assert the machine-readable
# status against the cddpd-serve/3 golden schema — every key, plus the
# invariant that the drifting trace actually triggered the loop.
serve-smoke:
	$(DUNE) build bin/cddpd.exe
	$(DUNE) exec bin/cddpd.exe -- generate --workload W1 --scale 0.2 --value-range 1000 -o _serve_smoke_trace.sql
	$(DUNE) exec bin/cddpd.exe -- serve --input _serve_smoke_trace.sql \
	  --rows 5000 --value-range 1000 --window 100 \
	  --status > _serve_smoke_status.json
	@grep -q '"schema":"cddpd-serve/3"' _serve_smoke_status.json
	@! grep -q -e '"stats_invalidations"' -e '"generations"' _serve_smoke_status.json \
	  || { echo "serve-smoke: cddpd-serve/3 carries no fence counters"; exit 1; }
	@for key in regime windows statements residual_statements drift_events \
	  reoptimizations deployments rejections rollbacks exec_logical_io \
	  trans_logical_io final_design; do \
	    grep -q "\"$$key\":" _serve_smoke_status.json \
	      || { echo "serve-smoke: missing key $$key"; exit 1; }; \
	  done
	@grep -q '"drift_events":0' _serve_smoke_status.json \
	  && { echo "serve-smoke: expected drift on the canned trace"; exit 1; } || true
	@grep -q '"deployments":0' _serve_smoke_status.json \
	  && { echo "serve-smoke: expected at least one deployment"; exit 1; } || true
	@echo "serve-smoke: OK $$(cat _serve_smoke_status.json)"
	@rm -f _serve_smoke_trace.sql _serve_smoke_status.json

# The serve benchmark's correctness gate (perfbench/README.md) on each
# workload: no failed statements, the report invariants hold, and every
# replay makes the same decisions.  Any violation exits non-zero.  The
# timings it prints are too short to compare.  --trace 1 adds two checks:
# the traced pass's digest must equal the untraced replays', and the
# layer probe's per-window I/O (the one perfbench path that runs
# Database.execute with a statement key, i.e. the plan memo) must equal
# the served windows'.  On a 2-vCPU host it costs steady/drift/writes
# 16.5/6.2/8.9 s against 11.9/5.1/6.5 s untraced.  Each run's result
# line then goes through tools/perf_counters.py, which compares the
# deterministic counters (what-if calls, logical I/O per statement, DP
# edges relaxed, statistics refreshes, re-optimizations, deployments,
# rollbacks) exactly with the seed-1 values pinned in PERF_COUNTERS.json.
PERF_WORKLOADS = steady drift writes

perf-smoke:
	@for w in $(PERF_WORKLOADS); do \
	  echo "perf-smoke: $$w"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1) \
	    || { printf '%s\n' "$$out"; exit 1; }; \
	  printf '%s\n' "$$out" | python3 tools/perf_counters.py --workload $$w PERF_COUNTERS.json \
	    || exit 1; \
	done

# Out-of-range arguments and a k-requiring method without -k must each
# exit non-zero without cmdliner's "internal error" (an uncaught
# exception); each retired option (CLI_RETIRED, "OPTION|ARGS") must be
# rejected the same way as an unknown option; a statement the schema
# rejects must be skipped by serve with a warning, from stdin and from
# --input FILE alike, and the run must exit 0 and print its report.
CDDPD = ./_build/default/bin/cddpd.exe
CLI_BAD = \
  "serve --window 0" \
  "serve --history 0" \
  "serve --horizon 0" \
  "recommend --input _cli_smoke_trace.sql -k 1 --segment 0" \
  "recommend --input _cli_smoke_trace.sql --method kaware" \
  "recommend --input _cli_smoke_empty.sql -k 1"
CLI_RETIRED = \
  "--once|serve --once --input _cli_smoke_serve.sql" \
  "-j|serve -j 2" \
  "--jobs|recommend --input _cli_smoke_trace.sql -k 1 --jobs 2" \
  "--cell-jobs|experiment table1 --cell-jobs 2"

cli-smoke:
	$(DUNE) build bin/cddpd.exe
	@$(CDDPD) generate --workload W1 --scale 0.01 -o _cli_smoke_trace.sql > /dev/null
	@: > _cli_smoke_empty.sql
	@head -n 1 _cli_smoke_trace.sql > _cli_smoke_serve.sql
	@printf 'SELECT * FROM t WHERE nosuch = 3\n-- a comment line\n' >> _cli_smoke_serve.sql
	@status=0; \
	for args in $(CLI_BAD); do \
	  out=$$($(CDDPD) $$args < /dev/null 2>&1); code=$$?; \
	  if [ $$code -eq 0 ]; then echo "cli-smoke: '$$args' exited 0"; status=1; fi; \
	  if echo "$$out" | grep -q 'internal error'; then \
	    echo "cli-smoke: '$$args' crashed: $$out"; status=1; fi; \
	done; \
	out=$$(printf 'SELECT * FROM t WHERE nosuch = 3\n' | $(CDDPD) serve --rows 1000 2>&1); code=$$?; \
	if [ $$code -ne 0 ]; then echo "cli-smoke: serve exited $$code on a bad statement: $$out"; status=1; fi; \
	if ! echo "$$out" | grep -q 'skipping statement'; then \
	  echo "cli-smoke: serve did not skip the bad statement: $$out"; status=1; fi; \
	out=$$($(CDDPD) serve --input _cli_smoke_serve.sql --rows 1000 2>&1); code=$$?; \
	if [ $$code -ne 0 ]; then echo "cli-smoke: serve --input exited $$code: $$out"; status=1; fi; \
	if [ $$(echo "$$out" | grep -c 'skipping statement') -ne 1 ]; then \
	  echo "cli-smoke: serve --input did not warn exactly once: $$out"; status=1; fi; \
	if ! echo "$$out" | grep -q '^serve: regime='; then \
	  echo "cli-smoke: serve --input printed no report: $$out"; status=1; fi; \
	for spec in $(CLI_RETIRED); do \
	  opt=$${spec%%|*}; args=$${spec#*|}; \
	  out=$$($(CDDPD) $$args < /dev/null 2>&1); code=$$?; \
	  if [ $$code -eq 0 ] || ! echo "$$out" | grep -q -- "unknown option '$$opt'" \
	    || echo "$$out" | grep -q 'internal error'; then \
	    echo "cli-smoke: '$$args' was not rejected as an unknown option: $$out"; status=1; fi; \
	done; \
	rm -f _cli_smoke_trace.sql _cli_smoke_empty.sql _cli_smoke_serve.sql; \
	if [ $$status -eq 0 ]; then echo "cli-smoke: OK"; fi; \
	exit $$status

clean:
	$(DUNE) clean
	rm -f _serve_smoke_trace.sql _serve_smoke_status.json \
	  _cli_smoke_trace.sql _cli_smoke_empty.sql _cli_smoke_serve.sql

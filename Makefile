# Convenience wrapper over dune. `make check` is the full local gate:
# build everything, run the test suites, the never-crash fuzz corpus, and
# the observability trace smoke test.

.PHONY: all build test fuzz diff-smoke equiv-smoke trace-smoke inject-smoke report-smoke os-smoke perf perf-smoke perf-regress serve-bench serve-smoke check loc clean

all: build

build:
	dune build

test:
	dune runtest

fuzz:
	dune build @fuzz

# Differential verification gate: the identity-edit round-trip oracle over
# the example corpus (original vs no-op-edited image, lockstep emulation).
diff-smoke:
	dune build @diff

# Contract oracle gate: real instrumented edits (qpt2, tracer, SFI) over
# the corpus must be event-equivalent to the originals modulo each tool's
# declared side effects — its edit contract.
equiv-smoke:
	dune build @equiv

# End-to-end observability gate: generate a synthetic workload, run it under
# the emulator with tracing + metrics on, then structurally validate the
# emitted Chrome trace JSON with the bundled checker.
trace-smoke:
	dune build bin/workload_gen.exe bin/eel_run.exe bin/trace_check.exe
	./_build/default/bin/workload_gen.exe --seed 7 --routines 8 -o _build/smoke.sef
	./_build/default/bin/eel_run.exe --trace _build/smoke-trace.json --metrics _build/smoke.sef 2> /dev/null
	./_build/default/bin/trace_check.exe _build/smoke-trace.json

# Adversarial campaign gate: seed known-bad edits, contracts and
# environments against the oracle (tool x fault class matrix + guided
# hunt + clean and environment sweeps). Fails unless every seeded fault
# is detected with zero crashes and zero clean-corpus false violations;
# minimized reproducers land in _build/inject (CI uploads them).
inject-smoke:
	dune build bin/eel_fuzz.exe
	./_build/default/bin/eel_fuzz.exe --inject --budget 48 --out _build/inject

# Observability report gate: run the hotspot + overhead report over the
# whole corpus (all tools), export the flamegraph / speedscope / ledger
# JSON artifacts into _build, and structurally validate the profile
# exports. eel_report itself exits non-zero if any tool/program pair is
# not equivalent or any overhead is unexplained.
report-smoke:
	dune build bin/eel_report.exe bin/trace_check.exe
	./_build/default/bin/eel_report.exe --flame _build/report.flame \
	  --speedscope _build/report.speedscope.json \
	  --json _build/report-ledger.json | tee _build/report.txt
	./_build/default/bin/trace_check.exe _build/report.flame _build/report.speedscope.json

# OS workload gate: assemble the I/O-bound OS-mode corpus (each program
# runs against its deterministic in-memory world) and push it through all
# six tools under Toolbox.measure via eel_report --corpus os. eel_report
# exits non-zero on any divergence or any unexplained overhead, so this
# asserts 6 tools x the whole OS corpus verify equivalent. Artifacts:
# _build/os-report.txt (verdict + overhead table), _build/os-ledger.json.
os-smoke:
	dune build bin/eel_report.exe
	./_build/default/bin/eel_report.exe --corpus os \
	  --json _build/os-ledger.json | tee _build/os-report.txt

# Performance trajectory: the predecode + multicore fan-out experiment,
# persisted to BENCH_perf.json at the repo root (methodology in
# EXPERIMENTS.md). perf-smoke is the tiny-budget CI variant: it fails if
# the predecoded path is ever slower than decode-per-step.
perf:
	dune build bench/main.exe
	./_build/default/bench/main.exe perf

perf-smoke:
	dune build bench/main.exe
	EEL_PERF_BUDGET=smoke ./_build/default/bench/main.exe perf

# Perf-regression gate: remeasure the perf experiment's throughput kernel
# and compare against the committed BENCH_perf.json (or EEL_PERF_BASELINE)
# within EEL_REGRESS_TOL (default 12%); appends a line to the trajectory
# history (EEL_PERF_HISTORY, default _build/perf-history.jsonl). Scaling
# assertions are skipped on 1-core machines / contended baselines, or with
# EEL_REGRESS_SCALING=skip.
perf-regress:
	dune build bench/regress.exe
	./_build/default/bench/regress.exe

# Rewriting-as-a-service benchmark: cold vs warm throughput of the 100-job
# mixed corpus through the eel_serve engine with a durable content-addressed
# cache (persisted to BENCH_serve.json; methodology in EXPERIMENTS.md).
# Fails unless warm throughput is >= 3x cold and every cache hit is
# byte-identical to its miss. serve-smoke is the CI variant: a smaller
# budget through the same gate, plus the real binaries end-to-end — a cold
# eel_batch populates _build/serve-cache, then a fresh eel_batch process and
# an eel_serve fed the emitted JSONL corpus must both serve entirely from
# the durable layer (--expect-cached). Artifacts: _build/serve-report.json,
# _build/serve-stats*.json, _build/serve-responses.jsonl.
serve-bench:
	dune build bench/main.exe
	./_build/default/bench/main.exe serve

serve-smoke:
	dune build bench/main.exe bin/eel_batch.exe bin/eel_serve.exe
	EEL_SERVE_BUDGET=smoke EEL_BENCH_SERVE=_build/BENCH_serve_smoke.json ./_build/default/bench/main.exe serve
	rm -rf _build/serve-cache
	./_build/default/bin/eel_batch.exe --gen 24 --cache-dir _build/serve-cache \
	  --report _build/serve-report.json --stats _build/serve-stats-cold.json > _build/serve-batch.txt
	./_build/default/bin/eel_batch.exe --gen 24 --cache-dir _build/serve-cache \
	  --expect-cached --stats _build/serve-stats-warm.json >> _build/serve-batch.txt
	./_build/default/bin/eel_batch.exe --gen 6 --emit _build/serve-jobs.jsonl
	./_build/default/bin/eel_serve.exe --expect-cached --cache-dir _build/serve-cache \
	  --stats _build/serve-stats-serve.json _build/serve-jobs.jsonl > _build/serve-responses.jsonl

check:
	dune build && dune runtest && dune build @fuzz && dune build @diff && dune build @equiv && $(MAKE) trace-smoke && $(MAKE) inject-smoke && $(MAKE) report-smoke && $(MAKE) os-smoke && $(MAKE) serve-smoke

# Lines of code per library, implementations (.ml) and interfaces (.mli)
# counted separately, so every change can report LoC the same way.
loc:
	@printf '%-10s %7s %7s\n' library ml mli
	@for d in lib/*/; do \
	  printf '%-10s %7d %7d\n' $$(basename $$d) \
	    $$(cat $$d*.ml /dev/null | wc -l) $$(cat $$d*.mli /dev/null 2>/dev/null | wc -l); \
	done
	@printf '%-10s %7d %7d\n' total $$(cat lib/*/*.ml | wc -l) $$(cat lib/*/*.mli /dev/null 2>/dev/null | wc -l)

clean:
	dune clean

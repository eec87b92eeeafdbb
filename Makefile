# One-command gate for every PR: full build, tier-1 tests, and a
# planner smoke run on the embedded s27 circuit.

.PHONY: all build test lint lint-self smoke smoke-warm smoke-trace smoke-sanitize smoke-route smoke-bench smoke-scale smoke-serve check bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Determinism & domain-safety linter (per-file R1-R4 plus the
# interprocedural R5-R8, see DESIGN.md): exits non-zero on any finding
# not covered by a justified lint.allow entry.
lint: build
	dune exec bin/lacr_lint.exe -- --root . --allow lint.allow

# The analyzer held to its own rules: the interprocedural families
# over lib/lint itself.
lint-self: build
	dune exec bin/lacr_lint.exe -- --root . --allow lint.allow \
	  --only R5,R6,R7,R8 --under lib/lint

smoke:
	dune exec bin/lacr_cli.exe -- plan s27

# Warm/cold solver cross-check: the successive-instance MCMF engine
# must reproduce the cold per-round outcomes exactly.  s298's LAC run
# has 14 rounds, 13 of them warm-started (s27 stops after one cold
# round, which leaves nothing warm to compare).
smoke-warm:
	dune exec bin/lacr_cli.exe -- verify-warm s298

# Observability smoke: a traced s27 plan must emit a valid Chrome
# trace (monotone per-track timestamps, the pipeline's span names
# present) and a valid metrics dump.
smoke-trace:
	dune exec bin/lacr_cli.exe -- plan s27 \
	  --trace _build/smoke_trace.json --metrics _build/smoke_metrics.json
	dune exec bin/lacr_cli.exe -- trace-check _build/smoke_trace.json \
	  --metrics _build/smoke_metrics.json \
	  --expect plan,build,route.all,paths.compute,constraints.generate,lac.retime,lac.round

# Sanitizer smoke: a full plan with every solver invariant re-checked
# after each step (flow conservation, admissibility, retiming cycle
# sums, tile accounting, CSR shape, span balance).  s27's LAC run is
# one cold round; s386's has 11 rounds, 10 of them warm, so the flow
# checks also run on warm, multi-phase blocking flows.
smoke-sanitize:
	LACR_SANITIZE=1 dune exec bin/lacr_cli.exe -- plan s27
	LACR_SANITIZE=1 dune exec bin/lacr_cli.exe -- plan s386

# Router determinism smoke: the negotiated A* router must produce
# bit-identical nets/wirelength/overflow at --domains 1, 2 and 4.
# s1196 overflows after the initial pass and runs two rip-up passes
# (passes=3), so the sanitizer's boundary-demand recount checks the
# usage after re-routes, not only after the initial pass.
smoke-route:
	LACR_SANITIZE=1 dune exec bin/lacr_cli.exe -- verify-route s1196

# Bench smoke: the harness's cheap sections in fast mode (about 2 s),
# the E5 run-time rows and the A1-A3 ablations, with the --json log
# written and closed.  The harness checks no identities; those run
# elsewhere in `make check`: (W,D) pool-size identity as QCheck
# properties in `make test`, warm/cold identity in smoke-warm, router
# identity across domains in smoke-route, and the trace-off
# allocation guard as the obs test "disabled context allocates
# nothing".  S (about 30 s in fast mode) and U (full mode only) stay
# out.
smoke-bench:
	LACR_BENCH_FAST=1 dune exec bench/main.exe -- --only E,A \
	  --json _build/smoke_bench.json

# Scale smoke: plan a 2x10^5-unit hierarchical circuit on the default
# streamed path backend inside a hard 16 GiB address-space ceiling.
# The dense (W,D) matrices alone would need hundreds of GiB at this
# size (2 x n^2 x 8 bytes at ~220k retiming-graph vertices), so only
# the memory-bounded streamed engine and the flat constraint pipeline
# fit through the ulimit.  The second step checks, at the same rung and
# the planner's T_clk, that the streamed frontier's active-source gate
# changes nothing: the gated and the full constraint source pass must
# give identical rows and candidate counts, and with pruning identical
# target-pass columns.  The dense reference the tests use cannot be
# built at this size.
smoke-scale: build
	bash -c 'ulimit -v 16777216; exec ./_build/default/bin/lacr_cli.exe \
	  plan hier:200000 --domains 2 --second-iteration=false'
	bash -c 'ulimit -v 16777216; exec ./_build/default/bin/lacr_cli.exe \
	  verify-constraints hier:200000 --domains 2'

# Serving smoke: start lacrd on a private Unix socket, drive it with
# the seeded load generator (cache warm-up, byte-identity of daemon
# results against fresh single-shot plans, metrics aggregation), then
# shut it down over the wire and require a clean daemon exit.
smoke-serve: build
	bash -c 'set -e; sock=$$(mktemp -u /tmp/lacrd_smoke.XXXXXX.sock); \
	  ./_build/default/bin/lacrd.exe --socket $$sock --workers 2 --queue-depth 8 & pid=$$!; \
	  trap "kill $$pid 2>/dev/null || true" EXIT; \
	  ./_build/default/bin/lacr_cli.exe serve-client --socket $$sock \
	    --connections 2 --requests 24 --seed 11 --verify --shutdown; \
	  wait $$pid'

check: build test lint smoke smoke-warm smoke-trace smoke-sanitize smoke-route smoke-bench smoke-scale smoke-serve

bench:
	LACR_BENCH_FAST=1 dune exec bench/main.exe -- --json _build/bench_fast.json

clean:
	dune clean

#!/usr/bin/env bash
# Tier-1 verify + quick bench sweep.  This is what CI runs and what a
# contributor should run before pushing:
#
#   ./ci.sh                 # build + ctest + bench_all --quick
#   SANITIZE=1 ./ci.sh      # ASan+UBSan build + ctest (no bench sweep) —
#                           # the ARQ retransmit path and crash/recovery
#                           # teardown are exactly where lifetime bugs hide
#                           # (every flavour keeps test_hoops' 60 s per-test
#                           # TIMEOUT, tests/CMakeLists.txt: Theorem 1 at
#                           # n >= 1024 must stay linear per variable)
#   SANITIZE=tsan ./ci.sh   # ThreadSanitizer build + ctest — gates the
#                           # parallel engine's worker threads, the
#                           # mailbox executor both wall-clock roots run
#                           # on, and the lock-free traffic ledger they
#                           # all write; the parallel, wall-clock,
#                           # NetworkStats and WorkloadEngine suites then
#                           # run three more times
#   RELEASE=1 ./ci.sh       # Release (-O3, NDEBUG) build of the whole
#                           # tree (tests, benches, examples) + ctest — the
#                           # optimizer's warnings and the NDEBUG paths
#                           # perfbench measures (build-release/)
#   SOCKETS_SMOKE=1 ./ci.sh # release build + socket-layer tests + real
#                           # multi-process pardsm_node drills over
#                           # loopback TCP, incl. a kill -9 / respawn /
#                           # resync cycle (see docs/DEPLOYMENT.md)
#   PERFBENCH=1 ./ci.sh     # the repo benchmark's own checks: perfbench
#                           # --smoke (every workload, both modes, each
#                           # metric present, finite, in its unit) and
#                           # --selftest (simulator counts repeat per seed),
#                           # its output diffed against the committed
#                           # tests/golden/perfbench_selftest.txt — a src/
#                           # change that breaks either or moves a count
#                           # fails here first (perfbench/run.py builds
#                           # .bench_build/)
#   LINT=1 ./ci.sh          # static analysis: pardsm_lint over src/ (the
#                           # determinism / rng / pooled-reset / unordered /
#                           # layer-DAG contracts, docs/LINT.md), the
#                           # header self-containment build, and clang-tidy
#                           # when installed (skipped gracefully otherwise)
#   BUILD_DIR=out ./ci.sh
#   BENCH_FILTER=batching ./ci.sh   # only benches matching the regex
#
# ccache is picked up automatically when installed (CI caches its
# directory, so the sanitizer jobs stop rebuilding the world on every push).
set -euo pipefail

cd "$(dirname "$0")"

if [ "${PERFBENCH:-0}" != "0" ]; then
  # perfbench builds itself (Release, its own tree); nothing else is needed.
  echo "== perfbench: smoke =="
  python3 perfbench/run.py --smoke
  echo "== perfbench: seed determinism and committed counts =="
  # The simulator workloads' per-seed counts are committed: a change that
  # moves any of them (msgs, bytes, events, retransmissions, buffered
  # checks, replica digest) fails here until the copy is updated with it.
  python3 perfbench/run.py --selftest > .bench_build/perfbench_selftest.txt
  diff -u tests/golden/perfbench_selftest.txt .bench_build/perfbench_selftest.txt
  echo "== done (perfbench) =="
  exit 0
fi

SANITIZE="${SANITIZE:-0}"
if [ "$SANITIZE" = "tsan" ]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  SANITIZE_FLAVOUR=tsan
elif [ "$SANITIZE" != "0" ]; then
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  SANITIZE_FLAVOUR=asan
elif [ "${RELEASE:-0}" != "0" ]; then
  BUILD_DIR="${BUILD_DIR:-build-release}"
  SANITIZE_FLAVOUR=
elif [ "${SOCKETS_SMOKE:-0}" != "0" ]; then
  # Own build tree: the smoke configures with benches off, which must not
  # stick in the regular build directory's CMake cache.
  BUILD_DIR="${BUILD_DIR:-build-sockets}"
  SANITIZE_FLAVOUR=
elif [ "${LINT:-0}" != "0" ]; then
  # Own build tree: lint configures tests/benches/examples off and exports
  # compile_commands.json, neither of which belongs in the regular cache.
  BUILD_DIR="${BUILD_DIR:-build-lint}"
  SANITIZE_FLAVOUR=
else
  BUILD_DIR="${BUILD_DIR:-build}"
  SANITIZE_FLAVOUR=
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Every flavour builds warning-clean: a new warning (e.g. a
# designated-initializer mcs::run({...}) call that trips
# -Wmissing-field-initializers) fails CI instead of scrolling past.
CMAKE_EXTRA=(-DPARDSM_WERROR=ON)
if command -v ccache >/dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== configure =="
if [ "$SANITIZE" != "0" ]; then
  # Benches are skipped: google-benchmark timings under a sanitizer measure
  # the sanitizer, not the engine.  The full ctest suite (golden gates,
  # property sweeps, scenario faults, the parallel differential net) runs
  # instrumented.
  cmake -B "$BUILD_DIR" -S . "-DPARDSM_SANITIZE=$SANITIZE_FLAVOUR" \
        -DPARDSM_BUILD_BENCHES=OFF "${CMAKE_EXTRA[@]}"
elif [ "${RELEASE:-0}" != "0" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release "${CMAKE_EXTRA[@]}"
elif [ "${SOCKETS_SMOKE:-0}" != "0" ]; then
  # Benches are irrelevant to the deployment smoke; skipping them keeps
  # the job's build well under the minute budget.
  cmake -B "$BUILD_DIR" -S . -DPARDSM_BUILD_BENCHES=OFF "${CMAKE_EXTRA[@]}"
elif [ "${LINT:-0}" != "0" ]; then
  # Only the analyzer, the library and the header self-containment TUs are
  # needed; compile_commands.json feeds clang-tidy.
  cmake -B "$BUILD_DIR" -S . -DPARDSM_BUILD_TESTS=OFF \
        -DPARDSM_BUILD_BENCHES=OFF -DPARDSM_BUILD_EXAMPLES=OFF \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "${CMAKE_EXTRA[@]}"
else
  cmake -B "$BUILD_DIR" -S . "${CMAKE_EXTRA[@]}"
fi

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

if [ "${LINT:-0}" != "0" ]; then
  # The build above already gates header self-containment: every public
  # header compiled as its own TU inside pardsm_headers_selfcontained.
  echo "== lint: pardsm_lint over src/ =="
  "$BUILD_DIR/tools/lint/pardsm_lint" src
  "$BUILD_DIR/tools/lint/pardsm_lint" --json src > "$BUILD_DIR/lint_report.json"
  echo "report: $BUILD_DIR/lint_report.json"
  if command -v clang-tidy >/dev/null 2>&1; then
    # The portable subset of the rules (see .clang-tidy): libc rand and
    # <random>/<ctime> includes.  Headers are covered transitively via the
    # self-containment TUs' compile commands.
    echo "== lint: clang-tidy (portable rule subset) =="
    find src -name '*.cpp' -print0 | \
      xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
  else
    echo "== lint: clang-tidy not installed, skipping portable subset =="
  fi
  echo "== done (lint) =="
  exit 0
fi

if [ "${SOCKETS_SMOKE:-0}" != "0" ]; then
  # Deployment smoke: the socket-rooted test binaries plus real
  # multi-process drills — pardsm_node forks n OS processes that speak
  # length-prefixed TCP over loopback, so this exercises fork/exec, the
  # wire codec, heartbeat failure detection and RSYNC state transfer in a
  # way the in-process suite cannot.  Keep it under a minute: small n,
  # short scripts.  Kill drills use home-based protocols (cache-partial /
  # atomic-home / sequencer-sc) — pram's writer-only resync adoption
  # cannot refill a killed node's whole replica (docs/DEPLOYMENT.md).
  echo "== sockets smoke: in-process socket suites =="
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS" \
      -R 'Sockets\.|SocketStacks|NodeSpec\.')
  NODE="$BUILD_DIR/src/apps/pardsm_node"
  echo "== sockets smoke: lossless multi-process sweep =="
  for proto in pram-partial sequencer-sc; do
    "$NODE" --spawn --protocol "$proto" --nodes 3 --writes 4 --delay-us 1000
  done
  echo "== sockets smoke: chaos disconnect sweep =="
  "$NODE" --spawn --protocol atomic-home --nodes 3 --writes 4 \
      --delay-us 1000 --chaos-disconnect 0.1
  echo "== sockets smoke: chaos drop through ARQ =="
  # The only run where ARQ's rings handle frames decoded from real TCP
  # across OS processes: 10% of frames vanish, ARQ above each node's
  # socket layer must still land every replica on the reference state.
  "$NODE" --spawn --protocol atomic-home --nodes 3 --writes 4 \
      --delay-us 1000 --chaos-drop 0.1
  echo "== sockets smoke: kill -9 / respawn / resync drill =="
  "$NODE" --spawn --protocol cache-partial --nodes 3 --writes 5 \
      --delay-us 2000 --kill 2 --kill-after-ms 120 --respawn-after-ms 350
  echo "== done (sockets smoke) =="
  exit 0
fi

echo "== test =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

if [ "$SANITIZE" = "tsan" ]; then
  # The parallel root's window barrier is lock-free (atomic epoch + spin),
  # and the wall-clock roots' interleavings come from the OS scheduler, so
  # one instrumented pass can miss a rare race: re-run the parallel suites,
  # the mailbox-executor suites (threads + sockets), the traffic ledger's
  # owner-thread writes (NetworkStats, one slot per process), the engine's
  # per-owner latency histograms (WorkloadEngine: one per shard or
  # mailbox worker), its handler-failure and fault-window runs on both
  # roots, the scenario convergence cells on both wall-clock roots (the
  # timeline thread writing ChannelFaults while workers read it) and the
  # socket root's own worker-side read/write, backlog, detector, stop,
  # crash-window and hostile-connection tests until one fails, up to
  # three more times.
  echo "== test: parallel and wall-clock suites, repeated =="
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS" \
      -R 'Parallel|NetworkStats|WorkloadEngine|QuantumBoundary|CrossShard|ShardAssignment|ThreadRuntime|ThreadedProtocol|SocketStacks|MailboxExecutor|WallClockRun|WallClock/Convergence|Sockets\.(WorkersFlooding|BusyWorker|HaltDoesNot|RejectedFrames|MidStreamDisconnects|ScenarioCrash)|SocketFrames|SocketReadBuffer' \
      --repeat until-fail:3)
fi

if [ "$SANITIZE" != "0" ]; then
  echo "== done (sanitized) =="
  exit 0
fi

if [ "${RELEASE:-0}" != "0" ]; then
  echo "== done (release) =="
  exit 0
fi

echo "== bench (quick) =="
# A filtered sweep must not clobber the full merged document: keep the
# subset in BENCH_FILTERED.json (bench_all's own default for --filter).
BENCH_OUT=BENCH_ALL.json
BENCH_ARGS=(--quick)
if [ -n "${BENCH_FILTER:-}" ]; then
  BENCH_OUT=BENCH_FILTERED.json
  BENCH_ARGS+=(--filter "$BENCH_FILTER")
elif [ -f BENCH_BASELINE.json ]; then
  # Perf smoke against the committed baseline: fails on non-finite
  # wall_ns rows or any row wildly (>10x) slower than the baseline.
  # Filtered runs skip it — a subset diff would under-match the baseline.
  BENCH_ARGS+=(--baseline "$PWD/BENCH_BASELINE.json" --gate)
fi
BENCH_ARGS+=(--out "$BENCH_OUT")
(cd "$BUILD_DIR" && ./bench/bench_all "${BENCH_ARGS[@]}")
python3 - "$BUILD_DIR/$BENCH_OUT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = sum(len(b["results"]) for b in doc["benches"])
assert doc["schema"] == "pardsm-bench-v4" and doc["benches"], doc.keys()
for b in doc["benches"]:
    assert b["schema"] == "pardsm-bench-v4", b["bench"]
    for r in b["results"]:
        assert "max_rss_kb" in r, (b["bench"], r.get("label"))
        # v4 percentile columns: present on every row, and monotone
        # whenever the row actually captured latency (p999 > 0).
        for key in ("p50_us", "p99_us", "p999_us", "censored_ops"):
            assert key in r, (b["bench"], r.get("label"), key)
        if r["p999_us"] > 0:
            assert r["p50_us"] <= r["p99_us"] <= r["p999_us"], \
                (b["bench"], r.get("label"), r["p50_us"], r["p99_us"], r["p999_us"])
timed = [r for b in doc["benches"] for r in b["results"] if r.get("wall_ns", 0) > 0]
total_ms = sum(r["wall_ns"] for r in timed) / 1e6
rss_rows = [r for b in doc["benches"] for r in b["results"] if r["max_rss_kb"] > 0]
peak_mb = max((r["max_rss_kb"] for r in rss_rows), default=0) / 1024
import os
print(f"{os.path.basename(sys.argv[1])} ok: {len(doc['benches'])} benches, "
      f"{rows} result rows, {len(timed)} timed rows ({total_ms:.1f} ms wall), "
      f"{len(rss_rows)} RSS-sampled rows (peak {peak_mb:.0f} MB)")
EOF

echo "== done =="

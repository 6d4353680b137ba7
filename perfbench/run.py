#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload at a tiny size
    python3 perfbench/run.py --selftest   # seed determinism of the counts

Run from the repository root.  The first call configures and builds
perfbench/ (which pulls in the pardsm library from ../src) into
.bench_build/; later calls only re-check the build.  Build output goes to
stderr, so the last line of stdout is always the driver's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; both are checked against the file (names
and units) before the result is passed on.  The traced run also writes
its spans to .bench_build/traces/.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no pardsm sources at {ROOT} (CMakeLists.txt and src/ needed)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(args):
    """Run the driver; returns (stdout lines, exit code)."""
    try:
        p = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return p.stdout.splitlines(), p.returncode


def check_result(lines, wanted):
    """Parse the last line and check it carries exactly `wanted` metrics
    (name -> unit), each finite.  Returns the parsed result."""
    if not lines:
        fail("driver printed nothing")
    try:
        r = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(r)}")
    if not r["correct"]:
        return r
    got = r["metrics"]
    missing = sorted(set(wanted) - set(got))
    extra = sorted(set(got) - set(wanted))
    if missing or extra:
        fail(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, unit in wanted.items():
        m = got[name]
        if m.get("unit") != unit:
            fail(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")
    return r


def wanted_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def measure(a):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; one of {names}")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.json")]
    lines, code = run_driver(args)
    r = check_result(lines, wanted_metrics(bench, a.trace))
    print("\n".join(lines))
    return 0 if code == 0 and r["correct"] else 1


def smoke():
    """Every workload, both modes, at a tiny size: each named metric must
    be present, finite and carry its unit."""
    bench = spec()
    for w in bench["workloads"]:
        for trace in (0, 1):
            lines, code = run_driver(["--workload", w["name"], "--seed", "1",
                                      "--seconds", "0.2", "--trace",
                                      str(trace), "--ops", "8"])
            r = check_result(lines, wanted_metrics(bench, trace))
            if code != 0 or not r["correct"]:
                fail(f"smoke: {w['name']} trace={trace} failed its checks")
            print(f"smoke: {w['name']} trace={trace}: "
                  f"{len(r['metrics'])} metrics ok")
    print("smoke ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not (a.smoke or a.selftest or a.workload):
        ap.error("--workload, --smoke or --selftest is required")
    build()
    if a.smoke:
        return smoke()
    if a.selftest:
        lines, code = run_driver(["--selftest"])
        print("\n".join(lines))
        return code
    return measure(a)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved A/B of two git revisions on one perfbench workload.

    python3 tools/perfbench_ab.py --base REV --change REV \\
        --workload par-pram-large --pairs 10 --seeds 11,12,13 [--seconds 20]

Each revision is exported with `git archive` into its own tree under the
scratch directory (default .bench_build/ab/) and built there by its own
perfbench/run.py, so the two sides never share a build.  Pair i runs
`perfbench/run.py --workload W --seed S --trace T` once on each side with
S = seeds[i % len(seeds)]; even pairs run the base first and odd pairs the
change first, so drift on the machine falls on both sides alike.

For every metric the workload reports, it prints each side's median and
quartiles, the change/base ratio of the medians and the pairs the change
won (better by the direction BENCHMARK.json gives), and marks metrics that
are equal within every pair.  --out FILE also writes every raw result.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev, scratch):
    """Export `rev` into scratch/<sha>; returns the tree's path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = scratch / sha[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perfbench_ab: git archive {rev} failed")
    return sha, tree


def run(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its parsed JSON result."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"perfbench_ab: run failed in {tree} (seed {seed})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"perfbench_ab: incorrect result in {tree} (seed {seed})")
    return result


def directions(tree, trace):
    with open(tree / "BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["better"] for m in bench[key]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision A")
    ap.add_argument("--change", required=True, help="git revision B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1",
                    help="comma-separated seeds, cycled over the pairs")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", default=str(ROOT / ".bench_build" / "ab"))
    ap.add_argument("--out", help="write every raw result here (JSON)")
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    scratch = Path(a.scratch).resolve()

    sides = {}
    for name, rev in (("base", a.base), ("change", a.change)):
        sha, tree = export(rev, scratch)
        # A short run builds the tree, so no pair times a build.
        run(tree, a.workload, seeds[0], 0.5, a.trace)
        sides[name] = {"rev": rev, "sha": sha, "tree": tree, "runs": []}
        print(f"{name}: {rev} = {sha[:12]} built in {tree}", file=sys.stderr)

    for i in range(a.pairs):
        seed = seeds[i % len(seeds)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            r = run(sides[name]["tree"], a.workload, seed, a.seconds, a.trace)
            sides[name]["runs"].append({"seed": seed, "result": r})
        print(f"pair {i + 1}/{a.pairs} seed {seed} done ({order[0]} first)",
              file=sys.stderr)

    better = directions(sides["change"]["tree"], a.trace)
    base_runs = [r["result"]["metrics"] for r in sides["base"]["runs"]]
    change_runs = [r["result"]["metrics"] for r in sides["change"]["runs"]]
    print(f"{a.workload}: {a.pairs} pairs, seeds {a.seeds}, {a.seconds} s, "
          f"trace {a.trace}; base {sides['base']['sha'][:12]}, "
          f"change {sides['change']['sha'][:12]}")
    print(f"{'metric':<40} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>6}")
    for name in sorted(base_runs[0]):
        xs = [m[name]["value"] for m in base_runs]
        ys = [m[name]["value"] for m in change_runs]
        bq1, bmed, bq3 = quartiles(xs)
        cq1, cmed, cq3 = quartiles(ys)
        ratio = cmed / bmed if bmed else float("nan")
        higher = better.get(name, "lower") == "higher"
        won = sum(1 for x, y in zip(xs, ys) if (y > x if higher else y < x))
        same = " identical per pair" if xs == ys else ""
        print(f"{name:<40} {bmed:>12.6g} [{bq1:.6g}, {bq3:.6g}]"
              f" {cmed:>12.6g} [{cq1:.6g}, {cq3:.6g}] {ratio:>7.3f}"
              f" {won:>3}/{a.pairs}{same}")

    if a.out:
        for side in sides.values():
            side["tree"] = str(side["tree"])
        with open(a.out, "w") as f:
            json.dump(sides, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

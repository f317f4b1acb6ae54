#!/usr/bin/env python3
"""Compare the working tree against a parent revision on the repository benchmark.

Run from anywhere:

    python3 tools/perfpairs.py --parent REV [--pairs 10] [--seconds 15] [--seed 1] [WORKLOAD ...]

Exports REV with `git archive` into a temporary directory and runs
`perfbench/run.py --trace 0` there and in the working tree, PAIRS times
for each workload (every workload in BENCHMARK.json when none is named),
alternating which side runs first. Each run's end-to-end metrics are
printed as it finishes; then, for each workload and end-to-end metric:

- each side's median [q1, q3] (linear interpolation between order
  statistics);
- the change's wins: pairs where it reads better, ties counting for
  neither;
- "gain": whether the change wins at least nine tenths of the pairs and
  its median is better than the parent's by more than the parent's
  interquartile range;
- "bound": whether the change's median is no worse than the parent's by
  more than the metric's relative bound in BENCHMARK.json.

A run that exits nonzero, counts a failed operation or prints no result
line is reported and left out of the statistics. The exit status is 1 when a run failed or a bound
does not hold, else 0. The temporary tree is removed on exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                      check=True, cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()


def export(rev, into):
    """The tracked files of [rev], written under [into]."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit("perfpairs: git archive %s failed" % rev)


def run(tree, workload, seed, seconds):
    """The metrics of one untraced run in [tree], or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or result.get("failed", 1) != 0:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summary(metric, parent, change):
    """One report line for [metric] over paired runs; returns (line, bound holds)."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    pairs = [(p[name], c[name]) for p, c in zip(parent, change) if p is not None and c is not None]
    if not pairs:
        return "%-24s no complete pair" % name, False
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(ps)
    cq1, cmed, cq3 = quartiles(cs)
    wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
    gap = (cmed - pmed) if higher else (pmed - cmed)
    gain = wins * 10 >= 9 * len(pairs) and gap > pq3 - pq1
    worse = -gap / abs(pmed) if pmed else 0.0
    ok = worse <= bound
    line = "%-24s %.10g [%.10g, %.10g]  %.10g [%.10g, %.10g]  %d/%d  %s  %s (%+.1f%%, bound %.0f%%)" % (
        name, pmed, pq1, pq3, cmed, cq1, cq3, wins, len(pairs), "gain" if gain else "no gain",
        "holds" if ok else "FAILS", 100.0 * worse, 100.0 * bound)
    return line, ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown or args.pairs < 1:
        ap.error("unknown workload %s" % ", ".join(sorted(unknown)) if unknown else "--pairs below 1")
    tmp = tempfile.mkdtemp(prefix="perfpairs-")
    try:
        export(args.parent, tmp)
        trees = {"parent": tmp, "change": ROOT}
        runs = {(w, side): [] for w in workloads for side in trees}
        for i in range(args.pairs):
            for w in workloads:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    m = run(trees[side], w, args.seed, args.seconds)
                    runs[(w, side)].append(m)
                    shown = "FAILED" if m is None else "  ".join(
                        "%s=%.10g" % (e["name"], m[e["name"]]) for e in spec["end_to_end"])
                    print("pair %d %s %-6s %s" % (i + 1, w, side, shown), flush=True)
        failed = any(m is None for ms in runs.values() for m in ms)
        all_ok = not failed
        print("\nseed %d, %d pairs of %g s; median [q1, q3] for parent, then change; wins, gain, bound"
              % (args.seed, args.pairs, args.seconds))
        for w in workloads:
            print(w)
            for metric in spec["end_to_end"]:
                line, ok = summary(metric, runs[(w, "parent")], runs[(w, "change")])
                all_ok = all_ok and ok
                print("  " + line)
        return 0 if all_ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

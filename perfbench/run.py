#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --selfcheck

Builds perfbench/perfbench.exe from source with dune, runs it, and checks
that the metric names on its result line (the last line of standard
output) are exactly those BENCHMARK.json lists for the mode: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Exits nonzero, without a result line, when the build fails or the names
disagree; otherwise with the benchmark's own exit code.

--selfcheck runs the traced benchmark at --seed twice and at --seed + 1
once, each in its own process, and requires the two runs at --seed to
print the same fingerprint (simulated metrics, counts, allocated words,
tracer events) and the run at --seed + 1 to pass every check with a
different one.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def run(args):
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def arg(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def selfcheck(workload, seed):
    prints = []
    for s in (seed, seed, seed + 1):
        code, lines = run(["--workload", workload, "--seed", str(s), "--trace", "1"])
        fp = [l[len("fingerprint "):] for l in lines if l.startswith("fingerprint ")]
        print("seed %d: exit %d" % (s, code))
        if code != 0 or not fp:
            return 1
        prints.append(json.loads(fp[0]))
    checks = [("same_seed_repeats", prints[0] == prints[1]),
              ("second_seed_differs", prints[0] != prints[2])]
    for name, ok in checks:
        print("check %-22s %s" % (name, "ok" if ok else "FAILED"))
    ok = all(ok for _, ok in checks)
    print("selfcheck %s: %s" % (workload, "ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--selfcheck" in argv:
        return selfcheck(arg(argv, "--workload", ""), int(arg(argv, "--seed", "1")))
    code, lines = run(argv)
    if not lines:
        return code or 1
    print("\n".join(lines[:-1]))
    try:
        got = list(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    want = expected_names(arg(argv, "--trace", "0"))
    if got != want:
        print("perfbench: metrics %s differ from BENCHMARK.json %s" % (got, want), file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-gcp10 --seed 3 --seconds 10 --trace 0

Run from the root of a source tree. Builds perfbench/perfbench.exe with
dune (inside the tree: ./_build, dune's shared cache disabled), runs it,
checks its output against BENCHMARK.json, and prints the harness's metric
lines, a run record and, last, one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. Exit status: 0 when every check passed, 1 when a check failed
(the result line is still printed), 2 when nothing could be measured
(no source tree, build failure, crash or timeout; no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    opam_root = os.path.expanduser("~/.opam")
    if os.path.isdir(opam_root):
        candidates += [os.path.join(opam_root, s, "bin", "dune") for s in sorted(os.listdir(opam_root))]
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH")


def build(deadline):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [find_dune(), "build", "--root", ".", "--display", "quiet", TARGET]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def source_digest():
    """SHA-256 over the sources the benchmark measures (stands in for a git
    rev where the tree is not a git checkout)."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("_"))
            paths += [os.path.join(root, f) for f in sorted(files) if not f.endswith(".pyc")]
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() or None


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {r["name"]: r["unit"] for r in rows}, [w["name"] for w in spec["workloads"]]


def contract_problems(result, expected):
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append("metric %s missing" % name)
        elif got.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r" % (name, got.get("unit"), unit))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s is not a number" % name)
    problems += ["unexpected metric %s" % name for name in metrics if name not in expected]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper-digest", action="store_true",
                    help="corrupt one repetition's log digest; the run must then fail its checks")
    args = ap.parse_args()

    start = time.time()
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(path):
            fail("run from the root of the source tree (%s not found)" % path)
    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads)))

    build(start + BUILD_TIMEOUT_S)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tamper_digest:
        cmd.append("--tamper-digest")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    if p.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(p.stdout + p.stderr)
        fail("harness exited with status %d" % p.returncode)
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]

    problems = contract_problems(result, expected)
    record.update(nproc=os.cpu_count(), git_rev=git_rev(), source_sha256=source_digest(),
                  wall_s=round(time.time() - start, 3))
    record["problems"] = record.get("problems", []) + problems
    result["correct"] = bool(result.get("correct")) and not problems

    for line in lines[:-2]:
        print(line)
    for msg in problems:
        print("CHECK FAILED: " + msg)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

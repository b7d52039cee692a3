#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one command
    python3 perfbench/run.py --self-test                  # short run of every workload

Run from the repository root. The first run configures and builds the
library tree and the driver under $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. The last line of standard output is one
JSON object: correct, attempted, failed and metrics (the end_to_end metrics
of BENCHMARK.json with --trace 0, the per_layer metrics with --trace 1).
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_replay", "serve_adapt", "protocol_run")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", bdir, "--target", "cnd_perfbench", "-j", str(nproc())]):
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(bdir, "cnd_perfbench")


def source_id():
    """The commit when run inside git, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(exe, workload, seed, seconds, trace, self_test, commit, work):
    """Run one workload; returns (exit code, parsed result or None)."""
    env = dict(os.environ)
    # Serving is pinned to one runtime lane per scorer; the protocol uses
    # every core, the runtime's default.
    env["CND_THREADS"] = "1" if workload.startswith("serve_") else str(nproc())
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work, "--commit", commit]
    if self_test:
        cmd.append("--self-test")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited with code {proc.returncode}")
    return proc.returncode, json.loads(lines[-1])


def complete(result, trace):
    """Check the metrics against BENCHMARK.json. A per-layer metric of a
    layer the workload does not exercise is reported as 0."""
    e2e, layer = catalogue()
    want = layer if trace else e2e
    got = result["metrics"]
    for name, m in got.items():
        if want.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not in BENCHMARK.json with that unit")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")
    missing = [n for n in want if n not in got]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    if missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u}) for n, u in want.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    exe = build(bdir)
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    commit = source_id()

    if args.self_test:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        seconds = 2
    elif args.workload == "all":
        runs = [(w, args.trace) for w in WORKLOADS]
        seconds = args.seconds
    else:
        runs = [(args.workload, args.trace)]
        seconds = args.seconds

    results = {}
    worst = 0
    for w, t in runs:
        code, res = run_one(exe, w, args.seed, seconds, t, args.self_test, commit, work)
        res = complete(res, t)
        worst = max(worst, code)
        results[f"{w}/trace{t}"] = res
        if len(runs) > 1:
            print(f"result {w} trace={t} " + json.dumps(res))

    if len(runs) == 1:
        print(json.dumps(results.popitem()[1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{k}/{n}": m for k, r in results.items() for n, m in r["metrics"].items()},
        }))
    sys.exit(worst)


if __name__ == "__main__":
    main()

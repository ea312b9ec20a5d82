#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end benchmark of jitschedd.

Run from the repository root:

    python3 bench_e2e/run.py --workload fig5-dacapo --seed 1 --seconds 18 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1 --trace 1
    python3 bench_e2e/run.py --smoke
    python3 bench_e2e/run.py --baseline --seeds 5 --sets 2

The first call configures and builds the jitsched tree plus bench_e2e
with CMake into $CARGO_TARGET_DIR (default .bench_build); later calls
only rebuild what changed.  Build output goes to stderr, so the last
line on stdout stays the benchmark's JSON result.  Without the jitsched
sources next to this directory the build fails and the script exits
non-zero without printing a result.

--baseline runs every workload for each of --seeds seeds, --sets
times, and writes bench_e2e/results/e2e-<sha>.json; compare.py reads
those files.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig5-dacapo", "astar-exact", "hot-cache", "hot-nocache"]
TARGETS = ["bench_e2e", "jitschedd", "jitsched-trace-check"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure once, then build the three binaries; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir] + gen)
    steps.append(["cmake", "--build", bdir, "--target"] + TARGETS +
                 ["-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench(bdir, args):
    """Run the binary with @p args; returns its exit code."""
    out_dir = os.path.join(bdir, "e2e-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "bin", "bench_e2e")] + args + [
        "--out-dir", out_dir, "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def baseline(bdir, seeds, sets, seconds):
    """Both trace modes of every workload, per seed, `sets` times."""
    sha = git_sha()
    out_dir = os.path.join(bdir, "e2e-out")
    runs = []
    for s in range(sets):
        for seed in range(1, seeds + 1):
            for workload in WORKLOADS:
                for trace in ("0", "1"):
                    rc = bench(bdir, ["--workload", workload, "--seed",
                                      str(seed), "--seconds", str(seconds),
                                      "--trace", trace])
                    record = os.path.join(
                        out_dir, "e2e-%s-seed%d-trace%s.json" %
                        (workload, seed, trace))
                    with open(record) as f:
                        run = json.load(f)
                    run["set"] = s
                    run["exit_code"] = rc
                    runs.append(run)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", "e2e-%s.json" % sha)
    with open(path, "w") as f:
        json.dump({"git_sha": sha, "sets": sets, "seeds": seeds,
                   "seconds": seconds, "runs": runs}, f, indent=1)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="toy-size run of every workload; checks the "
                         "metric names")
    ap.add_argument("--baseline", action="store_true",
                    help="record results/e2e-<sha>.json")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    a = ap.parse_args()
    if not (a.smoke or a.baseline or a.workload):
        ap.error("one of --workload, --smoke, --baseline is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    if a.smoke:
        return bench(bdir, [
            "--smoke",
            "--expect", os.path.join(HERE, "expectations",
                                     "e2e_metric_names.txt"),
            "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")])
    if a.baseline:
        return baseline(bdir, a.seeds, a.sets, a.seconds)
    return bench(bdir, ["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", a.trace])


if __name__ == "__main__":
    sys.exit(main())

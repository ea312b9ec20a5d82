#!/usr/bin/env python3
"""Compare two bench_e2e baselines by the bounds in BENCHMARK.json.

    python3 bench_e2e/compare.py A.json B.json   # A = parent, B = change
    python3 bench_e2e/compare.py A.json          # A's own run-to-run spread
    python3 bench_e2e/compare.py A.json:0 A.json:1   # one file's two sets

A and B are files run.py --baseline writes (bench_e2e/results/); a
`:N` suffix keeps only set N of the file.  For each workload the
comparison prints one row per end-to-end metric, one for error_rate
(failed / attempted) and one per exact per-layer counter:

  worse       B is worse than A by more than the bound
  better      B is better than A by more than the bound and by more
              than A's own spread (interquartile range)
  unresolved  A's own spread is wider than the bound, and B's runs do
              not all beat A's, so the data cannot tell
  unchanged   otherwise
  invalid     a run exited non-zero, reported correct=false, or printed
              a value that is not a number: its numbers are not
              measurements

Timings are compared as medians over all seeds.  Metrics with bound 0
in BENCHMARK.json, error_rate and the A* counters in EXACT_LAYER must
repeat exactly: they are paired by seed, never mixed into one median,
and any seed on which B differs from A is a change.  A seed whose own
runs in A disagree leaves the row unresolved.

Other per-layer metrics have no bound; their medians and change are
listed after the verdicts.  Exit status 1 when any row is worse or
invalid.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer counters that repeat exactly for one seed: the sequential
# A* search, and the one-worker parallel search the replay runs.
EXACT_LAYER = [
    "core.astar.nodes_expanded",
    "core.astar.evaluations",
    "core.astar.bytes_per_node",
    "core.astar.peak_mb",
    "core.astar_par.nodes_expanded",
    "core.astar_par.nodes_pruned_incumbent",
    "core.astar_par.peak_mb",
]


def load(path):
    """A baseline file, or one set of it for `path:N`."""
    name, _, only_set = path.rpartition(":")
    if not only_set.isdigit():
        name, only_set = path, None
    with open(name) as f:
        baseline = json.load(f)
    if only_set is not None:
        baseline["runs"] = [r for r in baseline["runs"]
                            if r["set"] == int(only_set)]
    return baseline


def problems(baseline):
    """{workload: [why a run is invalid]}."""
    out = {}
    for run in baseline["runs"]:
        res = run["result"]
        where = "set %d seed %d trace %d" % (run["set"], run["seed"],
                                             run["trace"])
        why = []
        if run.get("exit_code", 0) != 0:
            why.append("exit %d" % run["exit_code"])
        if not res["correct"]:
            why.append("correct=false")
        if any(m["value"] is None for m in res["metrics"].values()):
            why.append("null value")
        if why:
            out.setdefault(run["workload"], []).append(
                where + ": " + ", ".join(why))
    return out


def by_seed(baseline, trace):
    """{workload: {metric: {seed: [values]}}} over one trace mode."""
    out = {}
    for run in baseline["runs"]:
        if run["trace"] != trace:
            continue
        res = run["result"]
        per = out.setdefault(run["workload"], {})
        named = dict((k, m["value"]) for k, m in res["metrics"].items())
        named["error_rate"] = res["failed"] / res["attempted"]
        for name, value in named.items():
            if value is not None:
                per.setdefault(name, {}).setdefault(run["seed"],
                                                    []).append(value)
    return out


def pooled(seeds):
    return [x for xs in seeds.values() for x in xs]


def spread(xs):
    """Interquartile range as a share of the median."""
    med = statistics.median(xs)
    if len(xs) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(med)


def worse_by(ma, mb, lower_is_better):
    """How much worse median B is than median A, as a share of A."""
    by = (mb - ma) / abs(ma) if ma else 0.0
    return by if lower_is_better else -by


def verdict(a, b, bound, lower_is_better):
    """Medians over every seed, judged against the bound."""
    by = worse_by(statistics.median(a), statistics.median(b),
                  lower_is_better)
    noise = spread(a)
    if by > bound:
        return "worse"
    all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if noise > bound and not all_better:
        return "unresolved"
    if -by > max(bound, noise):
        return "better"
    return "unchanged"


def exact_verdict(a, b, lower_is_better):
    """Seed by seed: every value of B must equal A's."""
    seeds = sorted(set(a) & set(b))
    if not seeds or any(len(set(a[s])) != 1 for s in seeds):
        return "unresolved"
    changed = worse = False
    for s in seeds:
        for x in b[s]:
            if x != a[s][0]:
                changed = True
                worse = worse or ((x > a[s][0]) == lower_is_better)
    return "worse" if worse else ("better" if changed else "unchanged")


def repeats(seeds):
    return all(len(set(xs)) == 1 for xs in seeds.values())


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    # (name, bound or None for exact, lower is better, trace mode)
    rows = [(m["name"], m["bound"] or None, m["better"] == "lower", 0)
            for m in spec["end_to_end"]]
    rows.append(("error_rate", None, True, 0))
    layer = dict((m["name"], m) for m in spec["per_layer"])
    rows += [(n, None, layer[n]["better"] == "lower", 1)
             for n in EXACT_LAYER]

    a = load(sys.argv[1])
    data_a = {0: by_seed(a, 0), 1: by_seed(a, 1)}
    bad = problems(a)
    if len(sys.argv) == 2:
        print("%-12s %-38s %12s %8s %6s" %
              ("workload", "metric", "median", "spread", "bound"))
        for workload in sorted(data_a[0]):
            for why in bad.get(workload, []):
                print("%-12s invalid: %s" % (workload, why))
            for name, bound, _, trace in rows:
                seeds = data_a[trace].get(workload, {}).get(name)
                if not seeds:
                    continue
                xs = pooled(seeds)
                if bound is None:
                    print("%-12s %-38s %12.6g %8s  exact, %s" %
                          (workload, name, statistics.median(xs), "",
                           "repeats per seed" if repeats(seeds)
                           else "DOES NOT REPEAT"))
                else:
                    print("%-12s %-38s %12.6g %7.2f%% %5.0f%%" %
                          (workload, name, statistics.median(xs),
                           100 * spread(xs), 100 * bound))
        return 1 if bad else 0

    b = load(sys.argv[2])
    data_b = {0: by_seed(b, 0), 1: by_seed(b, 1)}
    for workload, why in problems(b).items():
        bad.setdefault(workload, []).extend(why)
    failing = bool(bad)
    print("%-12s %-38s %12s %12s %8s  %s" %
          ("workload", "metric", "A median", "B median", "worse by",
           "verdict"))
    for workload in sorted(set(data_a[0]) & set(data_b[0])):
        for why in bad.get(workload, []):
            print("%-12s %-38s %s" % (workload, "invalid", why))
        for name, bound, lower, trace in rows:
            sa = data_a[trace].get(workload, {}).get(name)
            sb = data_b[trace].get(workload, {}).get(name)
            if not sa or not sb:
                continue
            xa, xb = pooled(sa), pooled(sb)
            ma, mb = statistics.median(xa), statistics.median(xb)
            v = exact_verdict(sa, sb, lower) if bound is None else \
                verdict(xa, xb, bound, lower)
            failing = failing or v == "worse"
            print("%-12s %-38s %12.6g %12.6g %7.2f%%  %s" %
                  (workload, name, ma, mb, 100 * worse_by(ma, mb, lower), v))

    print("\nper-layer medians (no bound)")
    for workload in sorted(set(data_a[1]) & set(data_b[1])):
        for m in spec["per_layer"]:
            if m["name"] in EXACT_LAYER:
                continue
            sa = data_a[1][workload].get(m["name"])
            sb = data_b[1][workload].get(m["name"])
            if not sa or not sb:
                continue
            ma = statistics.median(pooled(sa))
            mb = statistics.median(pooled(sb))
            change = "%+7.2f%%" % (100 * (mb - ma) / abs(ma)) if ma else \
                ("   same" if mb == ma else "    new")
            print("%-12s %-40s %12.6g %12.6g %s" %
                  (workload, m["name"], ma, mb, change))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

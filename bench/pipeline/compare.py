#!/usr/bin/env python3
"""Compares bench_pipeline records (--out files): a baseline A and a candidate B.

    python3 bench/pipeline/compare.py A.json[,A2.json...] B.json[,B2.json...]
                                      [--benchmark FILE]

Each side is one record or a comma-separated list of them; both sides must
cover the same seeds. Every end-to-end metric of BENCHMARK.json (default:
the one at the root of the repository) is compared, per workload, against
its bound:

  ok          B is no worse than A by more than the bound
  REGRESSION  B is worse than A by more than the bound
  unresolved  the spread (IQR over median) of A or B is wider than the
              bound, so the medians cannot tell

Timings compare medians. With one record per side, the median and spread
are those of its reps. With several, they are taken over the records'
medians, which also catches host drift between runs; on a shared host
prefer this.

Metrics marked exact repeat for a seed, so they are compared seed by seed
and have no spread:
  - genome_fraction_pct may get worse by no more than its bound;
  - the quality metrics (n50_bp, misassemblies, contigs) may not get worse
    at all, in the direction each record gives;
  - the per-layer counts (supersteps, messages, ...) must match exactly.
Failed checks in B count as a regression. Exits 1 on any regression or
mismatch, 2 on bad input, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(arg):
    records = []
    for path in arg.split(","):
        with open(path) as f:
            records.append(json.load(f))
    return records


def median_and_spread(metrics):
    """Median and IQR over median of one metric over a side's records."""
    if len(metrics) == 1:
        m = metrics[0]
        if "q1" not in m or not m["value"]:
            return m["value"], 0.0
        return m["value"], (m["q3"] - m["q1"]) / m["value"]
    values = [m["value"] for m in metrics]
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def worse_by(a, b, better):
    """Relative change of B against A, positive when B is worse (from 0,
    only its sign)."""
    rel = (b - a) / abs(a) if a else float(b > a) - float(b < a)
    return rel if better == "lower" else -rel


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    side_a, side_b = load(args.a), load(args.b)
    seeds_a = sorted({r["seed"] for r in side_a})
    seeds_b = sorted({r["seed"] for r in side_b})
    if seeds_a != seeds_b or len(seeds_a) != len(side_a):
        print("compare.py: A has seeds %s, B has seeds %s; they must match, "
              "one record per seed" % (seeds_a, seeds_b), file=sys.stderr)
        return 2
    b_by_seed = {r["seed"]: r for r in side_b}
    workloads = [w for w in side_a[0]["workloads"]
                 if all(w in r["workloads"] for r in side_a + side_b)]

    bad = 0
    unresolved = 0
    row = "%-11s %-30s %12s %12s %8s %6s  %s"
    print(row % ("workload", "metric", "A", "B", "worse", "bound", "status"))
    for name in workloads:
        def pairs(section, key):
            """(seed, A metric, B metric) for every seed, B may lack it."""
            return [(ra["seed"], ra["workloads"][name].get(section, {})
                     .get(key), b_by_seed[ra["seed"]]["workloads"][name]
                     .get(section, {}).get(key)) for ra in side_a]

        for rb in side_b:
            wb = rb["workloads"][name]
            if wb["failed"]:
                bad += 1
                print(row % (name, "fail_rate", "", wb["fail_rate"], "", "0",
                             "REGRESSION (%s)" % "; ".join(wb["failures"])))
        for spec in bench["end_to_end"]:
            seeds = pairs("e2e", spec["name"])
            if any(ma is None or mb is None for _, ma, mb in seeds):
                continue
            a, spread_a = median_and_spread([ma for _, ma, _ in seeds])
            b, spread_b = median_and_spread([mb for _, _, mb in seeds])
            if seeds[0][1].get("exact"):
                worse = max(worse_by(ma["value"], mb["value"], spec["better"])
                            for _, ma, mb in seeds)
                status = "ok" if worse <= spec["bound"] else "REGRESSION"
            else:
                worse = worse_by(a, b, spec["better"])
                if max(spread_a, spread_b) > spec["bound"]:
                    status = "unresolved"
                else:
                    status = "ok" if worse <= spec["bound"] else "REGRESSION"
            bad += status == "REGRESSION"
            unresolved += status == "unresolved"
            print("%-11s %-30s %12.6g %12.6g %+7.1f%% %5.1f%%  %s"
                  % (name, spec["name"], a, b, 100 * worse,
                     100 * spec["bound"], status))
        compared = 0
        for section in ("quality", "layers"):
            for key, ma in side_a[0]["workloads"][name].get(section,
                                                              {}).items():
                if not ma.get("exact"):
                    continue
                for seed, ma, mb in pairs(section, key):
                    if mb is None:
                        continue
                    compared += 1
                    if section == "quality":
                        # May improve, in the direction the record gives.
                        worse = worse_by(ma["value"], mb["value"],
                                         ma["better"])
                        if worse <= 0:
                            continue
                        status = "REGRESSION (seed %s)" % seed
                    elif mb["value"] != ma["value"]:
                        status = "MISMATCH (seed %s)" % seed
                    else:
                        continue
                    bad += 1
                    print(row % (name, key, ma["value"], mb["value"], "",
                                 "exact", status))
        print("%-11s %d exact quality and layer counts compared"
              % (name, compared))
    print("%d regression(s) or mismatch(es), %d unresolved" % (bad, unresolved))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two bench_e2e result directories against BENCHMARK.json.

    compare_runs.py A B [--set-a S] [--set-b S]
        For every end_to_end metric x workload: median and quartiles of each
        side, the change of B against A, and a verdict:
          ok          B's median is not worse than A's by more than the bound
          regressed   it is, and both sides' spreads are within the bound
          unresolved  a spread (quartile distance over median) is wider than
                      the bound, so the runs cannot tell; unless every run
                      of B reads better than every run of A
        Per-layer medians of --trace 1 runs are printed for reference, with
        no verdict. Exits 1 on any regressed row or incorrect run of B.

    compare_runs.py --collect DIR --set S [--cpu-model M] [--nproc N]
        Folds DIR/runs/<workload>.set<S>.seed<n>.trace<t>.json (written by
        run_benchmark.sh) into DIR/BENCH_<workload>.json.

Python 3 standard library only.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_FILE = re.compile(r"^(?P<workload>.+)\.set(?P<set>\d+)\.seed(?P<seed>\d+)"
                      r"\.trace(?P<trace>[01])\.json$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_path(directory, workload):
    return os.path.join(directory, "BENCH_%s.json" % workload)


def collect(args):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(args.collect, "runs", "*.json"))):
        m = RUN_FILE.match(os.path.basename(path))
        if m is None or int(m.group("set")) != args.set:
            continue
        with open(path) as f:
            report = json.load(f)
        info = report["info"]
        by_workload.setdefault(m.group("workload"), []).append({
            "set": args.set,
            "seed": int(m.group("seed")),
            "trace": int(m.group("trace")),
            "git_sha": info.get("git_sha", "unknown"),
            "correct": bool(info["correct"]),
            "attempted": int(info["attempted"]),
            "failed": int(info["failed"]),
            "metrics": {name: metric["value"]
                        for name, metric in report["metrics"].items()},
            "samples": {name: metric["samples"]
                        for name, metric in report["metrics"].items()
                        if metric["samples"]},
        })
    for workload, runs in sorted(by_workload.items()):
        path = result_path(args.collect, workload)
        doc = {"workload": workload, "runs": []}
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
        fresh = {(r["set"], r["seed"], r["trace"]) for r in runs}
        doc["runs"] = [r for r in doc["runs"]
                       if (r["set"], r["seed"], r["trace"]) not in fresh]
        doc["runs"] = sorted(doc["runs"] + runs,
                             key=lambda r: (r["set"], r["trace"], r["seed"]))
        doc["machine"] = {"cpu_model": args.cpu_model, "nproc": args.nproc}
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print("%s: %d runs" % (path, len(doc["runs"])))


def runs_of(directory, workload, set_tag, trace):
    path = result_path(directory, workload)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        runs = json.load(f)["runs"]
    return [r for r in runs if r["trace"] == trace and
            (set_tag is None or r["set"] == set_tag)]


def values(runs, name):
    return [r["metrics"][name] for r in runs
            if r["metrics"].get(name) is not None]


def summary(vals):
    """(median, q1, q3, spread) with spread = (q3 - q1) / |median|."""
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(metric, a_vals, b_vals):
    a_med, _, _, a_spread = summary(a_vals)
    b_med, _, _, b_spread = summary(b_vals)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    bound = metric["bound"]
    if metric["better"] == "lower":
        b_dominates = max(b_vals) < min(a_vals)
    else:
        b_dominates = min(b_vals) > max(a_vals)
    if b_dominates:
        return worse, "ok"  # every run of B reads better than every run of A
    if max(a_spread, b_spread) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def fmt(v):
    return "%.6g" % v


def compare(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    regressed = False
    header = ("metric", "workload", "A median [q1, q3]", "B median [q1, q3]",
              "worse", "spread A/B", "bound", "verdict")
    rows = [header]
    for metric in bench["end_to_end"]:
        for w in workloads:
            a = values(runs_of(args.a, w, args.set_a, 0), metric["name"])
            b = values(runs_of(args.b, w, args.set_b, 0), metric["name"])
            if not a or not b:
                rows.append((metric["name"], w, "-", "-", "-", "-",
                             fmt(metric["bound"]), "missing"))
                continue
            am, aq1, aq3, asp = summary(a)
            bm, bq1, bq3, bsp = summary(b)
            worse, v = verdict(metric, a, b)
            regressed |= v == "regressed"
            rows.append((metric["name"], w,
                         "%s [%s, %s]" % (fmt(am), fmt(aq1), fmt(aq3)),
                         "%s [%s, %s]" % (fmt(bm), fmt(bq1), fmt(bq3)),
                         "%+.2f%%" % (100 * worse),
                         "%.3f/%.3f" % (asp, bsp), fmt(metric["bound"]), v))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)))

    incorrect = 0
    for w in workloads:
        for side, d, s in (("A", args.a, args.set_a), ("B", args.b, args.set_b)):
            runs = runs_of(d, w, s, 0) + runs_of(d, w, s, 1)
            bad = [r for r in runs if not r["correct"]]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print("%s %s: %d runs, %d incorrect, %d/%d operations failed" %
                  (side, w, len(runs), len(bad), failed, attempted))
            if side == "B":
                incorrect += len(bad)

    per_layer = [("metric", "workload", "A median", "B median")]
    for metric in bench["per_layer"]:
        for w in workloads:
            a = values(runs_of(args.a, w, args.set_a, 1), metric["name"])
            b = values(runs_of(args.b, w, args.set_b, 1), metric["name"])
            if a and b:
                per_layer.append((metric["name"], w,
                                  fmt(statistics.median(a)),
                                  fmt(statistics.median(b))))
    if len(per_layer) > 1:
        print("\nper-layer medians (--trace 1 runs; no bounds):")
        widths = [max(len(r[i]) for r in per_layer) for i in range(4)]
        for r in per_layer:
            print("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    return 1 if regressed or incorrect else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", nargs="?")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--set-a", type=int)
    parser.add_argument("--set-b", type=int)
    parser.add_argument("--collect", metavar="DIR")
    parser.add_argument("--set", type=int, default=0)
    parser.add_argument("--cpu-model", default="unknown")
    parser.add_argument("--nproc", type=int, default=0)
    args = parser.parse_args()
    if args.collect:
        collect(args)
        return 0
    if not (args.a and args.b):
        parser.error("need two result directories (or --collect DIR)")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())

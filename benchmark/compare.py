#!/usr/bin/env python3
"""Compare two sets of calu_bench result files, or summarize one pass.

  python3 benchmark/compare.py A B
      A and B are result directories (or result files), e.g. two runs of
      `benchmark/run.sh` on the parent commit and on a change.  For every
      (metric, workload) pair it prints both medians and quartiles and, for
      the end-to-end metrics, a verdict from the bounds in BENCHMARK.json:

        worse       B's median is worse than A's by more than the bound
        unresolved  a side's run-to-run spread (IQR / median) exceeds the
                    bound, and neither side beats every run of the other
        better      at least 10 runs a side, B's median is better by more
                    than A's spread, and B wins at least 90% of the
                    (A run, B run) pairs
        unchanged   otherwise

      Exits 1 when any verdict is worse, 2 when the two sets ran a
      different kernel variant or team size (they are not comparable).

  python3 benchmark/compare.py --pass DIR
      Summary of one `run.sh --seed=S` pass: every metric with its unit,
      the tracing overhead and the breakdown coverage.  Exits 1 when a
      request failed or a result lacks a metric BENCHMARK.json names.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    spec["workload_names"] = [w["name"] for w in spec["workloads"]]
    return spec


def load_results(path):
    """The result files in directory `path`, or the one file `path`."""
    files = (sorted(glob.glob(os.path.join(path, "*-t[01].json")))
             if os.path.isdir(path) else [path])
    results = []
    for name in files:
        with open(name) as f:
            results.append(json.load(f))
    return results


def values(results, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in results
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


MIN_RUNS_FOR_GAIN = 10


def verdict(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    pairs = [sign * (y - x) for x in a for y in b]
    if max(spread(a), spread(b)) > bound:
        if all(d < 0 for d in pairs):
            return "better"
        if all(d > 0 for d in pairs):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(d < 0 for d in pairs) / len(pairs)
    enough = min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN
    if enough and -worse_by > spread(a) and wins >= 0.9:
        return "better"
    return "unchanged"


def stamp(results):
    return {(r["provenance"]["kernel"], r["provenance"]["team"])
            for r in results}


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:12.5g} [{q1:.4g}, {q3:.4g}]"


def compare(path_a, path_b):
    spec = load_spec()
    a, b = load_results(path_a), load_results(path_b)
    if not a or not b:
        sys.exit(f"no result files in {path_a if not a else path_b}")
    sa, sb = stamp(a), stamp(b)
    if len(sa | sb) != 1:
        print(f"refusing to compare: (kernel, team) differ: "
              f"{sorted(sa)} vs {sorted(sb)}", file=sys.stderr)
        return 2
    status = 0
    for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        rows = []
        for m in group:
            for w in spec["workload_names"]:
                va = values(a, w, trace, m["name"])
                vb = values(b, w, trace, m["name"])
                if not va or not vb:
                    continue
                ma = statistics.median(va)
                change = (statistics.median(vb) - ma) / abs(ma) if ma else 0.0
                v = (verdict(va, vb, m["better"], m["bound"]) if "bound" in m
                     else "-")
                if v == "worse":
                    status = 1
                rows.append(f"{w:12} {m['name']:26} {fmt(va):>32} "
                            f"{fmt(vb):>32} {change:+8.1%}  {v}")
        if rows:
            print(f"{'workload':12} {'metric':26} {'A median [q1, q3]':>32} "
                  f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
            print("\n".join(rows) + "\n")
    print(f"A: {len(a)} result files, B: {len(b)}; bounds from BENCHMARK.json")
    return status


def summarize(path):
    spec = load_spec()
    results = load_results(path)
    by = {(r["workload"], r["trace"]): r for r in results}
    status = 0
    for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        present = [w for w in spec["workload_names"] if (w, trace) in by]
        if not present:
            continue
        print(f"{'metric':26} {'unit':6}" +
              "".join(f"{w:>14}" for w in present))
        for m in group:
            row = f"{m['name']:26} {m['unit']:6}"
            for w in present:
                got = by[(w, trace)]["metrics"].get(m["name"])
                if got is None:
                    status = 1
                    row += f"{'MISSING':>14}"
                else:
                    row += f"{got['value']:14.5g}"
            print(row)
        print()
    for (w, trace), r in sorted(by.items()):
        extra = ""
        if trace:
            b = r["breakdown"]
            extra = (f"  stage spans cover {b['coverage']:.1%} of request time"
                     + ("  STALE" if b["stale"] else ""))
        print(f"{w:12} trace={trace}  attempted={r['attempted']} "
              f"failed={r['failed']} fail_frac={r['fail_frac']:.3g}{extra}")
        if not r["correct"]:
            status = 1
    print()
    for w in spec["workload_names"]:
        plain, traced = by.get((w, 0)), by.get((w, 1))
        # service_mix's traced run replays fused runs: no like-for-like.
        if not (plain and traced and "traced.jobs_per_s" in traced["extras"]):
            continue
        lat = (traced["extras"]["traced.latency_p50_ms"]["value"] /
               plain["metrics"]["latency_p50_ms"]["value"] - 1.0)
        thr = (plain["metrics"]["jobs_per_s"]["value"] /
               traced["extras"]["traced.jobs_per_s"]["value"] - 1.0)
        print(f"tracing overhead {w:12} latency_p50 {lat:+.1%}  "
              f"jobs_per_s {thr:+.1%}  (one pair of runs)")
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "--pass":
        return summarize(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

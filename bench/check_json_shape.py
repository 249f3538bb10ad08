#!/usr/bin/env python3
"""Shape-diff a freshly emitted bench JSON against a committed baseline.

Usage: check_json_shape.py BASELINE FRESH

Compares KEY PRESENCE, not values: every dotted key path present in the
baseline must exist in the fresh emission (list entries are merged under a
"[]" segment, so a sweep shorter than the baseline's — e.g. a CALU_KERNEL
pin reducing the kernels list to one variant — still passes as long as
each emitted record carries the full field set).  New keys in the fresh
file are reported but allowed: sections only grow; silently LOSING a
section is the failure mode this guards against, since downstream
trajectory tooling would read the missing field as "bench stopped
measuring this" without any error.

Beyond key presence, the fresh file's latency percentiles are sanity
checked: wherever a dict carries a p50/p95/p99 key triple sharing a stem
(lat_p50_ms / lat_p95_ms / lat_p99_ms, dispatch_p50_us / ...), the values
must be non-decreasing — a broken percentile helper (the floor-vs-
nearest-rank class of bug) or a shuffled emission fails here instead of
committing a self-contradictory trajectory point.

Ratio fields (any key containing "_vs_", e.g. the float32 sub-object's
gemm_speedup_vs_f64) must be finite and strictly positive: a zero,
negative, or NaN ratio means a broken timer or a division by an
unmeasured baseline, which would poison trajectory comparisons silently.

Exit status: 0 on shape match (extra keys allowed), 1 on missing keys,
non-monotone percentile triples, bad ratio fields, or unparseable input.
"""
import json
import re
import sys


def key_paths(obj, prefix=""):
    out = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            out.add(path)
            out |= key_paths(v, path)
    elif isinstance(obj, list):
        for v in obj:
            out |= key_paths(v, prefix + "[]")
    return out


def percentile_violations(obj, prefix=""):
    """Yields (path, message) for every p50/p95/p99 triple out of order."""
    out = []
    if isinstance(obj, dict):
        stems = {}
        for k, v in obj.items():
            m = re.fullmatch(r"(.*)p(50|95|99)(.*)", k)
            if m and isinstance(v, (int, float)):
                stems.setdefault((m.group(1), m.group(3)), {})[m.group(2)] = v
        for (pre, suf), vals in stems.items():
            if {"50", "95", "99"} <= set(vals):
                if not vals["50"] <= vals["95"] <= vals["99"]:
                    path = f"{prefix}.{pre}p*{suf}" if prefix else f"{pre}p*{suf}"
                    out.append((path,
                                f"p50={vals['50']} p95={vals['95']} "
                                f"p99={vals['99']} not non-decreasing"))
        for k, v in obj.items():
            out += percentile_violations(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, list):
        for v in obj:
            out += percentile_violations(v, prefix + "[]")
    return out


def numeric_leaves(obj, prefix=""):
    """Yields (path, value) for every numeric leaf under obj (obj itself
    when it is a number); bools are not numbers here."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from numeric_leaves(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from numeric_leaves(v, prefix + "[]")


def ratio_violations(obj, prefix=""):
    """Yields (path, message) for every numeric leaf under a *_vs_* key
    (a scalar, or a per-size table like gemm_speedup_vs_f64) that is not
    a finite positive number."""
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            if "_vs_" in k:
                leaves = list(numeric_leaves(v, path))
                if not leaves:
                    out.append((path, "ratio field has no numeric values"))
                for leaf_path, val in leaves:
                    if not (val == val and 0 < val < float("inf")):
                        out.append((leaf_path,
                                    f"ratio value {val!r} is not a finite "
                                    f"positive number"))
            else:
                out += ratio_violations(v, path)
    elif isinstance(obj, list):
        for v in obj:
            out += ratio_violations(v, prefix + "[]")
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    baseline_path, fresh_path = sys.argv[1], sys.argv[2]
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(fresh_path) as fh:
            fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"shape check FAILED: {e}", file=sys.stderr)
        return 1

    base_keys = key_paths(baseline)
    fresh_keys = key_paths(fresh)
    missing = sorted(base_keys - fresh_keys)
    if missing:
        print(f"shape check FAILED: {fresh_path} lost keys committed in "
              f"{baseline_path}:", file=sys.stderr)
        for k in missing:
            print(f"  {k}", file=sys.stderr)
        return 1
    violations = percentile_violations(fresh)
    if violations:
        print(f"shape check FAILED: {fresh_path} has non-monotone "
              f"percentile triples:", file=sys.stderr)
        for path, msg in violations:
            print(f"  {path}: {msg}", file=sys.stderr)
        return 1
    bad_ratios = ratio_violations(fresh)
    if bad_ratios:
        print(f"shape check FAILED: {fresh_path} has invalid ratio fields:",
              file=sys.stderr)
        for path, msg in bad_ratios:
            print(f"  {path}: {msg}", file=sys.stderr)
        return 1
    for k in sorted(fresh_keys - base_keys):
        print(f"shape check: new key (ok): {k}")
    print(f"shape check OK: {fresh_path} covers all "
          f"{len(base_keys)} baseline key paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare a parent and a change benchmark result set.

    python3 perfbench/compare.py PARENT CHANGE

A result set is a file of ``run.py`` output: every line that is a full record
(it has ``workload`` and ``metrics``) counts, so appending each run's stdout
to one file builds a set.  Only untraced records are compared.

One row per workload and end-to-end metric of ``BENCHMARK.json``, with each
side's median, quartiles and spread.  Runs are paired by seed when both sides
ran the same seeds, else in file order.  The verdict is

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range, in the better direction;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: either side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
- ``no change`` otherwise.

A gain is void when the change failed more operations than the parent.  The
exit code is 1 when any row is a regression.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    """{workload: [record, ...]} of the untraced full records in ``path``."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "workload" in rec and "metrics" in rec and not rec.get("trace"):
                out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values_of(records, metric):
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def pairs(parent, change, metric):
    ps = {r["seed"]: r for r in parent}
    cs = {r["seed"]: r for r in change}
    if set(ps) == set(cs) and len(ps) == len(parent) == len(change):
        keys = sorted(ps)
        parent, change = [ps[k] for k in keys], [cs[k] for k in keys]
    return [
        (p["metrics"][metric]["value"], c["metrics"][metric]["value"])
        for p, c in zip(parent, change)
        if metric in p["metrics"] and metric in c["metrics"]
    ]


def verdict(parent_vals, change_vals, paired, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent_vals)
    c_med = statistics.median(change_vals)
    improvement = sign * (c_med - p_med)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    gain = paired and wins >= 0.9 * len(paired) and improvement > (p_q3 - p_q1)
    if max(spread(parent_vals), spread(change_vals)) > bound:
        dominates = all(sign * (c - p) > 0 for p in parent_vals for c in change_vals)
        result = "gain" if dominates and gain else "unresolved"
    elif gain:
        result = "gain"
    elif -improvement > bound * abs(p_med):
        result = "regression"
    else:
        result = "no change"
    if result == "gain" and more_failures:
        result = "gain void: more failures"
    return result, wins


def compare(parent, change, bench):
    rows = []
    for wl in [w["name"] for w in bench["workloads"]]:
        if wl not in parent or wl not in change:
            rows.append((wl, "-", "missing on one side"))
            continue
        failed_p = sum(r["failed"] for r in parent[wl])
        failed_c = sum(r["failed"] for r in change[wl])
        for m in bench["end_to_end"]:
            pv, cv = values_of(parent[wl], m["name"]), values_of(change[wl], m["name"])
            if not pv or not cv:
                rows.append((wl, m["name"], "missing metric"))
                continue
            paired = pairs(parent[wl], change[wl], m["name"])
            result, wins = verdict(pv, cv, paired, m["better"], m["bound"], failed_c > failed_p)
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            rows.append((
                wl, m["name"],
                f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}] spread {spread(pv):.3f} n={len(pv)}  "
                f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] spread {spread(cv):.3f} n={len(cv)}  "
                f"{100 * (c_med - p_med) / p_med:+.1f}% {m['unit']}  wins {wins}/{len(paired)}  "
                f"failed {failed_p}->{failed_c}  {result}",
            ))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    rows = compare(load(args.parent), load(args.change), bench)
    for row in rows:
        print("  ".join(row))
    return 1 if any(row[2].endswith("regression") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

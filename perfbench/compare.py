"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of records that run.py wrote (copies of
perfbench/results/ taken after running each side).  For every workload and
end-to-end metric it prints each side's median and quartiles over runs, the
relative change of the median, and whether that change stays within the
bound BENCHMARK.json fixes.  A change whose base spread (quartile distance
over median) exceeds the bound is reported as unresolved.  Sets whose rational
backends differ (fractions against gmpy2) are refused: their times measure
different arithmetic.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    """Untraced full-size records of one set, grouped by workload."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["meta"]["size"] == "full":
            runs.setdefault(rec["meta"]["workload"], []).append(rec)
    return runs


def backends(runs):
    return {rec["meta"]["backend"] for recs in runs.values() for rec in recs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no full-size untraced records in one of the sets", file=sys.stderr)
        return 2
    kinds = backends(base) | backends(new)
    if len(kinds) != 1:
        print("error: refusing to compare rational backends %s" % ", ".join(sorted(kinds)), file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    worse = False
    print("backend: %s" % kinds.pop())
    for workload in sorted(set(base) & set(new)):
        print("%s (runs: base %d, new %d)" % (workload, len(base[workload]), len(new[workload])))
        for name, bound in bounds.items():
            a = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            b = [r["result"]["metrics"][name]["value"] for r in new[workload]]
            qa, qb = quartiles(a), quartiles(b)
            change = qb[1] / qa[1] - 1
            spread = (qa[2] - qa[0]) / qa[1]
            if change > bound:
                verdict = "WORSE beyond bound %.0f%%" % (100 * bound)
                worse = True
            elif spread > bound and not max(b) < min(a):
                verdict = "unresolved: base spread %.1f%% exceeds the bound" % (100 * spread)
            else:
                verdict = "within bound"
            print(
                "  %-13s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%  %s"
                % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100 * change, verdict)
            )
        for side, runs in (("base", base[workload]), ("new", new[workload])):
            walls = [w for r in runs for w in r["samples"]["wall_s"]]
            got = tail(walls)
            if got:
                print("  %s pass wall_s p%d %.6g s over %d passes" % (side, got[0], got[1], len(walls)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""eqmirror benchmark: one workload, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload bundle_ifunction --seed 1 --seconds 25 --trace 0

Each pass of the workload runs in a fresh process (see one_pass.py), so no
pass is served by the pipeline cache of another and each pass has its own
peak memory.  Passes repeat until ``--seconds`` have gone by; the metrics
are medians over passes.  Set-up (import plus geometries and series rings)
is timed in separate processes as well as in every pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the tracing overhead.  ``--tiny`` runs the small variant of the
workload that the benchmark's own tests use.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The full record, with run metadata and every pass,
is written to perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PER_PASS = 2  # set-up-only processes before each untraced pass
RUN_LIMIT_S = 170  # every pass must end inside this, whatever --seconds says

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# per-layer metrics reported in the JSON line: name -> unit.  Self times
# that are 0 on a workload that never calls the layer (series log/invert,
# closed_forms, cli) appear only in the printed self-time table.
PER_LAYER = {
    "givental.ifunction_s": "s",
    "givental.ifunction_terms": "count",
    "givental.default_series_ring_s": "s",
    "exact_core.reciprocal_s": "s",
    "exact_core.mul_calls": "count",
    "exact_core.term_pairs": "count",
    "exact_core.mul_self_s": "s",
    "exact_core.add_self_s": "s",
    "exact_core.kept_ratio": "ratio",
    "series.mul_calls": "count",
    "series.mul_self_s": "s",
    "series.add_self_s": "s",
    "series.subs_s": "s",
    "series.exp_s": "s",
    "series.series_reversion_s": "s",
    "pipeline.birkhoff_s": "s",
    "pipeline.extract_mirror_maps_s": "s",
    "pipeline.normalize_j_s": "s",
    "pipeline.extract_w_s": "s",
    "pipeline.restrict_w_s": "s",
    "pipeline.polylog_invert_s": "s",
    "pipeline.normalized_terms": "count",
    "pipeline.w_terms": "count",
    "pipeline.w_useful_ratio": "ratio",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "givental.ifunction_incl_s": "s",
    "pipeline.birkhoff_incl_s": "s",
    "pipeline.extract_mirror_maps_incl_s": "s",
    "pipeline.normalize_j_incl_s": "s",
    "pipeline.restrict_w_incl_s": "s",
    "pipeline.polylog_invert_incl_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def run_pass(workload, size, mode, seed, rotation, src, timeout, spans=None):
    """Run one_pass.py; returns its JSON report, or None if it failed."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "one_pass.py"),
        "--workload", workload,
        "--size", size,
        "--mode", mode,
        "--seed", str(seed),
        "--rotation", str(rotation),
        "--src", src,
    ]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("# %s pass timed out after %.0f s" % (mode, timeout), file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(lines[-1])


median = statistics.median


def describe(name, unit, values):
    """Median with the range of the samples.  A tail percentile needs ten
    samples beyond it, which one run of a few passes never has."""
    if not values:
        return "# %-14s no samples" % name
    return "# %-14s median %.6g %s  (min %.6g, max %.6g, n=%d)" % (
        name, median(values), unit, min(values), max(values), len(values))


def layer_metrics(clean, untraced_wall):
    """Per-layer metrics over the clean traced passes, with a printed table
    of every span's self time (layers a workload never calls included)."""
    traced = [p["report"] for p in clean if p["mode"] == "traced"]
    if not traced:
        return {}
    layers = [rep["layers"] for rep in traced]
    traced_wall = [rep["wall_s"] for rep in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.wall_s":
            value = median(traced_wall)
        elif name == "trace.overhead_s":
            if not untraced_wall:
                continue
            value = median(traced_wall) - median(untraced_wall)
        elif unit == "count":
            # exact counts repeat pass to pass; report one as it was counted
            value = statistics.median_low([layer[name] for layer in layers])
        else:
            value = median([layer[name] for layer in layers])
        metrics[name] = {"value": value, "unit": unit}
    print("# self time by span, median over %d traced passes:" % len(layers))
    for name in sorted(layers[0]["trace.self_by_span_s"]):
        print("#   %-32s %.6f s" % (name, median([t["trace.self_by_span_s"][name] for t in layers])))
    print("#   %-32s %.6f s" % ("(outside any span)", metrics["trace.unaccounted_s"]["value"]))
    if untraced_wall:
        print("#   traced wall_s %.6f s, untraced %.6f s, overhead %.6f s" % (
            metrics["trace.wall_s"]["value"], median(untraced_wall), metrics["trace.overhead_s"]["value"]))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    args = parser.parse_args(argv)
    size = "tiny" if args.tiny else "full"
    start = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eqmirror", "__init__.py")):
        print("error: no eqmirror sources under %s; run from the repository root" % src, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(HERE, "reference.json")):
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - start))

    def setup_sample():
        got = run_pass(args.workload, size, "setup", args.seed, 0, src, remaining())
        if got is None:
            print("error: set-up failed", file=sys.stderr)
        return got

    # the warm-up leaves compiled bytecode behind for the timed imports
    if setup_sample() is None:
        return 2

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-%s-seed%d-trace%d" % (args.workload, size, args.seed, args.trace)
    modes = ("plain", "traced") if args.trace else ("plain",)
    # untraced: enough passes for each job to run last once (peak memory
    # depends on what earlier jobs left in the pipeline cache)
    min_rounds = 1 if args.trace else min(3, workloads.job_count(args.workload, size))
    setups, passes = [], []
    measured = 0.0  # time spent in passes; set-up samples are not counted
    while True:
        index = len(passes)
        mode = modes[index % len(modes)]
        if mode == "plain":
            # set-up samples spread over the run, so their median sees the
            # machine as the passes do
            for _ in range(SETUP_PER_PASS):
                got = setup_sample()
                if got is None:
                    return 2
                setups.append(got)
        spans = os.path.join(results_dir, "spans-%s-pass%d.json" % (tag, index)) if mode == "traced" else None
        # pass i runs the seed's job order rotated by i, so that over a run
        # each job takes each position equally often
        began = time.monotonic()
        got = run_pass(args.workload, size, mode, args.seed, index, src, remaining(), spans)
        measured += time.monotonic() - began
        passes.append({"mode": mode, "report": got})
        rounds = len(passes) // len(modes)
        if len(passes) % len(modes) or rounds < min_rounds:
            continue
        per_round = measured / rounds
        # stop before a round that would end past --seconds or the run limit
        if measured + per_round > args.seconds or time.monotonic() - start + 1.5 * per_round > RUN_LIMIT_S:
            break

    njobs = workloads.job_count(args.workload, size)
    attempted = failed = 0
    problems = []
    for p in passes:
        rep = p["report"]
        if rep is None:
            attempted += njobs
            failed += njobs
            problems.append("a %s pass crashed" % p["mode"])
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems.extend(rep["problems"])
    clean = [p for p in passes if p["report"] is not None and p["report"]["failed"] == 0]

    def samples(mode, key):
        return [p["report"][key] for p in clean if p["mode"] == mode]

    backends = {r["backend"] for r in setups} | {p["report"]["backend"] for p in clean}
    meta = {
        "workload": args.workload,
        "size": size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": ",".join(sorted(backends)),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
    }
    e2e = {
        "wall_s": samples("plain", "wall_s"),
        "cpu_s": samples("plain", "cpu_s"),
        "setup_s": [r["setup_s"] for r in setups] + samples("plain", "setup_s"),
        "peak_rss_mib": samples("plain", "peak_rss_mib"),
    }
    print("# eqmirror benchmark: %s" % json.dumps(meta, sort_keys=True))
    print("# attempted %d jobs, failed %d, failed_fraction %.6g" % (attempted, failed, failed / max(attempted, 1)))
    for text in problems:
        print("# FAULT: %s" % text)
    for name, unit in END_TO_END:
        print(describe(name, unit, e2e[name]))

    if args.trace:
        metrics = layer_metrics(clean, e2e["wall_s"])
    else:
        # the run's peak is the highest any pass reached: job order moves it,
        # and over a run each job takes each position
        summary = {"peak_rss_mib": max}
        metrics = {
            name: {"value": summary.get(name, median)(e2e[name]), "unit": unit}
            for name, unit in END_TO_END
            if e2e[name]
        }

    correct = failed == 0 and not problems and bool(clean)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "samples": e2e, "passes": passes, "result": result}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

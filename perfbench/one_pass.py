"""One pass of a workload in a fresh process.

Usage (normally started by run.py):

    python3 perfbench/one_pass.py --workload NAME --size full|tiny \
        --mode setup|plain|traced --seed N --rotation I --src SRC_DIR [--spans PATH]

``setup`` mode only times the set-up.  ``plain`` and ``traced`` run every job
of the workload once, in the order drawn from ``--seed`` rotated by
``--rotation`` places, check each
output against the recorded reference, and print one JSON object as the
last line of standard output.  A fresh process per pass keeps the pipeline
cache of one pass from serving another.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


class CacheProbe:
    """Counts pipeline cache hits from outside.

    A call is a hit when run_pipeline returns an object it returned before;
    every returned result is kept so that identity stays meaningful.
    """

    def __init__(self):
        from eqmirror import pipeline

        self.hits = 0
        self.misses = 0
        self.results = []
        run = pipeline.run_pipeline

        def probe(*args, **kwargs):
            result = run(*args, **kwargs)
            if any(result is seen for seen in self.results):
                self.hits += 1
            else:
                self.misses += 1
                self.results.append(result)
            return result

        tracing.rebind(run, probe)


def layer_metrics(tr):
    """Per-layer figures of a traced pass, by the benchmark's metric names."""
    s, incl, calls, counts = tr.self_s, tr.incl_s, tr.calls, tr.counts
    pairs = counts["exact_core.term_pairs"]
    normalized = counts["pipeline.normalized_terms"]
    out = {
        "givental.ifunction_s": s["givental.ifunction"],
        "givental.ifunction_terms": counts["givental.ifunction_terms"],
        "givental.default_series_ring_s": s["givental.default_series_ring"],
        "exact_core.reciprocal_s": s["exact_core.reciprocal"],
        "exact_core.mul_calls": calls["exact_core.mul"],
        "exact_core.term_pairs": pairs,
        "exact_core.mul_self_s": s["exact_core.mul"],
        "exact_core.add_self_s": s["exact_core.add"],
        "exact_core.kept_ratio": counts["exact_core.kept_terms"] / pairs if pairs else 0.0,
        "series.mul_calls": calls["series.mul"],
        "series.mul_self_s": s["series.mul"],
        "series.add_self_s": s["series.add"],
        "series.subs_s": s["series.subs"],
        "series.exp_s": s["series.exp"],
        "series.series_reversion_s": s["series.series_reversion"],
        "pipeline.w_terms": counts["pipeline.w_terms"],
        "pipeline.normalized_terms": normalized,
        "pipeline.w_useful_ratio": counts["pipeline.w_terms"] / normalized if normalized else 0.0,
    }
    for stage in (
        "birkhoff",
        "extract_mirror_maps",
        "normalize_j",
        "extract_w",
        "restrict_w",
        "polylog_invert",
    ):
        out["pipeline.%s_s" % stage] = s["pipeline." + stage]
    # inclusive stage times: what the stage costs with everything it calls
    for name in (
        "givental.ifunction",
        "pipeline.birkhoff",
        "pipeline.extract_mirror_maps",
        "pipeline.normalize_j",
        "pipeline.restrict_w",
        "pipeline.polylog_invert",
    ):
        out[name + "_incl_s"] = incl[name]
    out["trace.self_by_span_s"] = dict(sorted(s.items()))
    return out


def check(workload, size, raw, errors, probe, reference):
    """Names of failed jobs and a description of every fault found.

    A job fails when it raised, when its output differs from the reference,
    or when a value it read is truncated.  A fault of the whole pass, such
    as a cache count other than the designed one, fails every job.
    """
    every = set(raw) | set(errors)
    failed = set(errors)
    problems = ["%s raised %s" % item for item in sorted(errors.items())]
    for name in sorted(raw):
        got = json.loads(json.dumps(workloads.canonical(workload, raw[name])))
        if got != reference.get(name):
            failed.add(name)
            problems.append("%s differs from the reference" % name)
        for label in workloads.truncated_values(workload, raw[name]):
            failed.add(name)
            problems.append("%s: %s is truncated" % (name, label))
    if workload == "verify_cli":
        for res in probe.results:
            for label in workloads.pipeline_result_truncations(res):
                failed = every
                problems.append("%s: %s is truncated" % (res.geometry.name, label))
    want = workloads.CACHE_COUNTS[(workload, size)]
    if (probe.hits, probe.misses) != want:
        failed = every
        problems.append(
            "pipeline cache: %d hits, %d misses; designed %d, %d"
            % (probe.hits, probe.misses, want[0], want[1])
        )
    return failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rotation", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    built = workloads.setup(args.workload, args.size)
    setup_s = time.perf_counter() - t0

    import eqmirror
    from eqmirror import pipeline

    if not os.path.abspath(eqmirror.__file__).startswith(src + os.sep):
        print("error: eqmirror was imported from %s, not %s" % (eqmirror.__file__, src), file=sys.stderr)
        return 2
    out = {
        "setup_s": setup_s,
        # "fractions" or "gmpy2": the module of the rational type in use
        "backend": type(eqmirror.rat(1)).__module__,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    reference = load_reference()[args.size][args.workload]
    probe = CacheProbe()
    tr = tracing.install(tracing.Tracer()) if args.mode == "traced" else None
    job_list = workloads.jobs(args.workload, args.size, built)
    random.Random(args.seed).shuffle(job_list)
    shift = args.rotation % len(job_list)
    job_list = job_list[shift:] + job_list[:shift]

    stale_cache = bool(pipeline._PIPELINE_CACHE)
    raw, errors = {}, {}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for name, job in job_list:
        try:
            raw[name] = job()
        except Exception as exc:  # a failing job is counted, the pass goes on
            traceback.print_exc()
            errors[name] = "%s: %s" % (type(exc).__name__, exc)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    failed, problems = check(args.workload, args.size, raw, errors, probe, reference)
    if stale_cache:
        failed = {name for name, _ in job_list}
        problems.append("pipeline cache not empty at pass start")
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(job_list),
        failed=len(failed),
        problems=problems,
        cache_hits=probe.hits,
        cache_misses=probe.misses,
    )
    if tr is not None:
        layers = layer_metrics(tr)
        layers["pipeline.cache_hits"] = probe.hits
        layers["pipeline.cache_misses"] = probe.misses
        layers["trace.unaccounted_s"] = wall_s - tr.traced_total()
        out["layers"] = layers
        if args.spans:
            tr.write_spans(args.spans, wall0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

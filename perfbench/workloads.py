"""The benchmark's workloads: their jobs, their set-up and their exact outputs.

Nothing here imports eqmirror at module level.  A pass imports the package
inside its timed set-up, so ``setup_s`` includes the import.

Every workload is a closed loop in one process and one thread: each job
starts when the previous one returns.  The seed only permutes job order; the
job set, and with it the pipeline cache's hit count, does not depend on it.
"""

import contextlib
import io

WORKLOADS = ("bundle_ifunction", "chain_normalize", "verify_cli")
SIZES = ("full", "tiny")

# (family, parameter, action, degree box) of each pipeline job.
PIPELINE_JOBS = {
    # one-variable bundles: the I-function and its reciprocal expansions
    # dominate, normalize_j is about 1% of the pass
    "bundle_ifunction": {
        "full": (
            ("x_k_factored", 4, "antidiagonal", (6,)),
            ("x_k", 2, "antidiagonal", (8,)),
        ),
        "tiny": (
            ("x_k_factored", 2, "antidiagonal", (3,)),
            ("x_k", 1, "antidiagonal", (4,)),
        ),
    },
    # many variables and wide tower coefficients: normalize_j and the mirror
    # reversion dominate
    "chain_normalize": {
        "full": (
            ("a_n", 2, None, (4, 4)),
            ("a_n", 3, None, (2, 2, 2)),
            ("trivalent", None, "diagonal", (2, 2, 2)),
        ),
        "tiny": (
            ("a_n", 2, None, (2, 2)),
            ("trivalent", None, "diagonal", (1, 1, 1)),
        ),
    },
}

# What a user runs.  a2-genus1 passes only with the -7/48 exponent: the
# quoted -7/24 does not close the identity (the strict xfail in the tests).
CLI_COMMANDS = {
    "full": (
        "verify-genus0 --k 2 --degree 6",
        "verify-factored --k 2 --degree 5",
        "verify-fibration --degree 4 --fiber-degree 2",
        "trivalent --degree 2,2,2",
        "a2-genus1 --degree 3,3 --delta-exponent=-7/48",
        "an --n 2 --degree 3,3",
        "gw --geometry x_k --k 1 --action antidiagonal --degree 6",
        "pf-check --k 2 --degree 24",
        "genus1-fit --k 2 --degree 10",
        "verify-genus1 --k 1 --degree 5",
    ),
    "tiny": (
        "verify-genus0 --k 2 --degree 3",
        "verify-fibration --degree 2 --fiber-degree 1",
        "an --n 2 --degree 2,2",
        "gw --geometry x_k --k 1 --action antidiagonal --degree 3",
        "pf-check --k 2 --degree 6",
    ),
}

# The distinct run_pipeline inputs the commands reach; set-up builds them.
CLI_INPUTS = {
    "full": (
        ("x_k_factored", 2, "antidiagonal", (6,)),
        ("x_k", 2, "antidiagonal", (5,)),
        ("x_k_factored", 2, "antidiagonal", (5,)),
        ("x_k", 0, "diagonal", (4,)),
        ("y_k", 0, None, (4, 2)),
        ("trivalent", None, "diagonal", (2, 2, 2)),
        ("trivalent", None, "antidiagonal", (2, 2, 2)),
        ("a_n", 2, None, (3, 3)),
        ("x_k", 1, "antidiagonal", (6,)),
    ),
    "tiny": (
        ("x_k_factored", 2, "antidiagonal", (3,)),
        ("x_k", 0, "diagonal", (2,)),
        ("y_k", 0, None, (2, 1)),
        ("a_n", 2, None, (2, 2)),
        ("x_k", 1, "antidiagonal", (3,)),
    ),
}

# Designed run_pipeline cache behaviour of one pass, as (hits, misses).
# verify_cli repeats inputs across commands (verify-fibration reads each
# geometry twice, an and a2-genus1 share a_n(2)@(3,3)); the pipeline
# workloads never repeat one.
CACHE_COUNTS = {
    ("bundle_ifunction", "full"): (0, 2),
    ("bundle_ifunction", "tiny"): (0, 2),
    ("chain_normalize", "full"): (0, 3),
    ("chain_normalize", "tiny"): (0, 2),
    ("verify_cli", "full"): (4, 9),
    ("verify_cli", "tiny"): (3, 5),
}


def inputs(workload, size):
    if workload == "verify_cli":
        return CLI_INPUTS[size]
    return PIPELINE_JOBS[workload][size]


def job_count(workload, size):
    if workload == "verify_cli":
        return len(CLI_COMMANDS[size])
    return len(PIPELINE_JOBS[workload][size])


def setup(workload, size):
    """Import eqmirror and build each job's geometry and series ring.

    Returns the (geometry, box) pairs of the workload's inputs.
    """
    import eqmirror

    if workload == "verify_cli":
        import eqmirror.cli  # noqa: F401  the commands' import cost is set-up
    built = []
    for family, parameter, action, box in inputs(workload, size):
        geom = eqmirror.geometry(family, parameter, action)
        eqmirror.default_series_ring(geom, box)
        built.append((geom, box))
    return built


def job_name(geom, box):
    return "%s@%s" % (geom.name, ",".join(str(b) for b in box))


def jobs(workload, size, built):
    """The (name, callable) jobs of one pass, in the default order."""
    if workload == "verify_cli":
        return [(cmd, _cli_job(cmd)) for cmd in CLI_COMMANDS[size]]
    return [(job_name(geom, box), _pipeline_job(geom, box)) for geom, box in built]


def _pipeline_job(geom, box):
    def run():
        from eqmirror import pipeline

        # looked up on the module at call time, so wrappers installed by the
        # cache probe and the tracer see these calls
        res = pipeline.run_pipeline(geom, box)
        rest = pipeline.restrict_w(res.w, {g: 0 for g in geom.generators})
        inverted = {
            key: pipeline.polylog_invert(comp, 2) for key, comp in rest.components.items()
        }
        return res, rest, inverted

    return run


def _cli_job(cmd):
    def run():
        from eqmirror import cli

        out = io.StringIO()
        # stderr carries the command's own timing line, which is not output
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(cmd.split())
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    return run


# ---------------------------------------------------------------------------
# exact outputs
# ---------------------------------------------------------------------------


def _elem(elem):
    from eqmirror import rat_str

    return [[b, list(lexps), h, rat_str(c)] for (b, lexps, h), c in sorted(elem.terms.items())]


def _series(series):
    return [
        [list(degs), list(logs), _elem(c)] for (degs, logs), c in sorted(series.data.items())
    ]


def _key(parts):
    return ";".join(",".join(str(x) for x in p) for p in parts)


def canonical(workload, raw):
    """JSON-ready exact form of one job's output, compared to the reference."""
    from eqmirror import rat_str

    if workload == "verify_cli":
        code, stdout = raw
        return {"exit": code, "stdout": stdout}
    res, rest, inverted = raw
    return {
        # the windows clip the I-series and W by design, so their sticky
        # flags are part of the exact output rather than a failure
        "truncated_flags": {"i_series": res.i_series.truncated(), "w": res.w.truncated()},
        "mirror_corrections": [_series(g) for g in res.mirror.corrections],
        "mirror_sigma": _series(res.mirror.sigma),
        "w_components": {_key(k): _series(s) for k, s in sorted(rest.components.items())},
        "gw": {
            _key(k): {_key([d]): rat_str(v) for d, v in sorted(table.items())}
            for k, table in sorted(inverted.items())
        },
    }


def truncated_values(workload, raw):
    """Labels of the read-out values of a job that are truncated.

    The read-out values are the mirror data and the restricted W components;
    each must be free of clipping anywhere in its history.
    """
    if workload == "verify_cli":
        return []
    res, rest, _ = raw
    return pipeline_result_truncations(res) + [
        "w component %r" % (k,) for k, s in rest.components.items() if s.truncated()
    ]


def pipeline_result_truncations(res):
    labels = []
    for i, g in enumerate(res.mirror.corrections):
        if g.truncated():
            labels.append("mirror correction %d" % i)
    for i, q in enumerate(res.mirror.inverse):
        if q.truncated():
            labels.append("mirror inverse %d" % i)
    if res.mirror.sigma.truncated():
        labels.append("mirror sigma")
    return labels

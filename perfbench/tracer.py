"""Layer tracing from outside the package.

``install`` wraps the public functions and methods of each eqmirror module
(``exact_core``, ``series``, ``givental``, ``pipeline``, ``closed_forms``,
``cli``) by rebinding them wherever the package holds a reference: on the
class, on the defining module, and on every module that imported the name
(``pipeline`` imports ``ifunction`` and ``series_reversion`` by name,
``closed_forms`` imports ``run_pipeline``).  No file of the package changes.

Each wrapper opens a span with a name, a start, an end and a parent.  A
span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out when the pass ends.  The
coefficient-level operations (``RingElem`` and ``QSeries`` addition and
multiplication) run hundreds of thousands of times per pass; their spans are
folded into per-name call counts and self times instead of being stored.
"""

import json
import time
import types

from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        # frame: [time covered by child spans, span id]
        self.root = [0.0, None]
        self.stack = [self.root]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []

    def span(self, name, fn, on_result=None):
        """Wrapper recording one stored span per call."""
        stack, spans = self.stack, self.spans
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        self_s[name] += 0.0  # listed even if never called

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[0]
                incl_s[name] += dur
                calls[name] += 1
                stack[-1][0] += dur
                spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def folded(self, name, fn, count=None):
        """Wrapper for hot leaf operations: counts and self time, no span."""
        stack = self.stack
        self_s, calls = self.self_s, self.calls
        self_s[name] += 0.0

        def wrapper(a, b):
            if count is not None:
                count(a, b)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(a, b)
            finally:
                dur = _perf() - start
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                stack[-1][0] += dur
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_total(self):
        """Time covered by top-level spans (the sum of every self time)."""
        return self.root[0]

    def write_spans(self, path, t0):
        """Write stored spans as JSON, times in seconds from ``t0``."""
        rows = [[sid, parent, name, start - t0, end - t0] for sid, parent, name, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": rows}, fh)


def _modules():
    import eqmirror
    from eqmirror import cli, closed_forms, exact_core, givental, pipeline, series

    return (eqmirror, exact_core, series, givental, pipeline, closed_forms, cli)


def rebind(fn, wrapper):
    """Replace every module-level reference to ``fn`` in the package."""
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, name, wrapper)


def install(tracer):
    """Wrap every layer's entry points; returns the tracer."""
    import numbers

    from eqmirror import cli, closed_forms, exact_core, givental, pipeline, series

    RingElem, QSeries = exact_core.RingElem, series.QSeries
    counts = tracer.counts

    def count_mul(a, b):
        if isinstance(b, RingElem):
            counts["exact_core.term_pairs"] += len(a.terms) * len(b.terms)
        elif isinstance(b, numbers.Rational):
            counts["exact_core.term_pairs"] += len(a.terms)

    mul = RingElem.__mul__

    def mul_kept(a, b):
        result = mul(a, b)
        if result is not NotImplemented:
            counts["exact_core.kept_terms"] += len(result.terms)
        return result

    ring_mul = tracer.folded("exact_core.mul", mul_kept, count_mul)
    ring_add = tracer.folded("exact_core.add", RingElem.__add__)
    RingElem.__mul__ = RingElem.__rmul__ = ring_mul
    RingElem.__add__ = RingElem.__radd__ = ring_add

    series_mul = tracer.folded("series.mul", QSeries.__mul__)
    series_add = tracer.folded("series.add", QSeries.__add__)
    QSeries.__mul__ = QSeries.__rmul__ = series_mul
    QSeries.__add__ = QSeries.__radd__ = series_add
    for meth in ("subs", "exp", "log", "invert"):
        setattr(QSeries, meth, tracer.span("series." + meth, getattr(QSeries, meth)))

    def add_terms(key):
        def count(result):
            counts[key] += sum(len(c.terms) for c in result.data.values())

        return count

    spans = [
        (exact_core.expand_reciprocal_at_infinity, "exact_core.reciprocal", None),
        (exact_core.reciprocal_hbar_linear, "exact_core.reciprocal", None),
        (series.series_reversion, "series.series_reversion", None),
        (givental.ifunction, "givental.ifunction", add_terms("givental.ifunction_terms")),
        (givental.default_series_ring, "givental.default_series_ring", None),
        (pipeline.birkhoff, "pipeline.birkhoff", None),
        (pipeline.extract_mirror_maps, "pipeline.extract_mirror_maps", None),
        (pipeline.normalize_j, "pipeline.normalize_j", add_terms("pipeline.normalized_terms")),
        (pipeline.extract_w, "pipeline.extract_w", add_terms("pipeline.w_terms")),
        (pipeline.restrict_w, "pipeline.restrict_w", None),
        (pipeline.polylog_invert, "pipeline.polylog_invert", None),
        (pipeline.run_pipeline, "pipeline.run_pipeline", None),
        (pipeline.gw_table, "pipeline.gw_table", None),
        (pipeline.factored_consistency_check, "pipeline.consistency_check", None),
        (pipeline.fibration_correspondence_check, "pipeline.consistency_check", None),
        (cli.main, "cli.main", None),
    ]
    for value in vars(closed_forms).values():
        if isinstance(value, types.FunctionType) and value.__module__ == closed_forms.__name__:
            spans.append((value, "closed_forms.check", None))
    for fn, name, on_result in spans:
        rebind(fn, tracer.span(name, fn, on_result))

    theta = givental.ThetaOperator
    for meth in ("__mul__", "apply"):
        setattr(theta, meth, tracer.span("givental.theta_operator", getattr(theta, meth)))
    pipeline.MirrorData.jacobian = tracer.span("pipeline.jacobian", pipeline.MirrorData.jacobian)
    return tracer


"""Birkhoff normalization of equivariant I-series and the downstream
mirror map, double-bracket, and instanton-number extraction steps.

The chain is: ``ifunction`` -> ``birkhoff`` (kill every nonnegative hbar
level of the bracket, order by order in q) -> ``extract_mirror_maps``
(read the 1/hbar slice) -> ``normalize_j`` (divide out the mirror map
exponential) -> ``extract_w`` (the 1/hbar^2 slice) -> ``restrict_w`` /
``polylog_invert`` (specialize weights and peel multicovers).
"""

import itertools
import math
from dataclasses import dataclass

from .exact_core import RingElem, rat, rat_str
from .givental import default_series_ring, geometry, ifunction
from .series import QSeries, SeriesRing, scalar_coeff_ring, series_reversion


class PipelineError(ValueError):
    pass


class BirkhoffError(PipelineError):
    """Raised when the retention windows cannot support an exact solve."""


# ---------------------------------------------------------------------------
# Birkhoff factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BirkhoffData:
    """Output of :func:`birkhoff`: the bracket series J with no hbar powers
    at level >= 0 past the constant term, and the normalizing coefficient
    series (c_0, c_1, ..., c_r), one c_i per curve class, with

        J = c_0 I + sum_i c_i (hbar q_i d/dq_i) I

    acting through the exponential prefactor."""

    j: QSeries
    c: tuple


def _subdegrees(degs):
    return itertools.product(*(range(d + 1) for d in degs))


def birkhoff(i_series):
    sring = i_series.sring
    ring = sring.coeff
    if not i_series.prefactor:
        raise PipelineError("birkhoff expects a prefactor-carrying series")
    gens = ring.algebra.generators
    gen_index = {ring.algebra.generator_index(g): pos for pos, g in enumerate(gens)}
    nvars = sring.nvars
    zero_degs = (0,) * nvars
    zl = (0,) * sring.nvars

    coeffs = {degs: i_series.coefficient(degs) for degs in sring.degree_keys()}
    if coeffs[zero_degs] != ring.one():
        raise PipelineError("the series must start at 1")

    # For weights expanded at infinity the normalizing coefficients carry
    # lambda^-j hbar^j tails that pair against the lambda^(+j) content of the
    # coefficients.  Reads at lambda level >= -1 are exact only when the
    # windows hold every such tail, i.e. reach one past the top lambda degree.
    for pos, floor in enumerate(ring.lambda_floor):
        if floor >= 0:
            continue
        top = 0
        for elem in coeffs.values():
            for (_, lexps, _) in elem.terms:
                if lexps[pos] > top:
                    top = lexps[pos]
        if ring.hbar_max < top + 1 or floor > -(top + 1) or ring.hbar_min > -(top + 4):
            raise BirkhoffError(
                "retention windows too shallow for weight %s: series content "
                "reaches %s^%d, so the factorization needs hbar_max >= %d, "
                "a %s floor <= %d, and hbar_min <= %d"
                % (
                    ring.lambda_names[pos],
                    ring.lambda_names[pos],
                    top,
                    top + 1,
                    ring.lambda_names[pos],
                    -(top + 1),
                    -(top + 4),
                )
            )

    c0 = {zero_degs: ring.one()}
    ci = [dict() for _ in gens]
    p_elems = [ring.p(g) for g in gens]
    jdata = {(zero_degs, zl): ring.one()}

    for degs in sring.degree_keys():
        if not any(degs):
            continue
        known = ring.zero()
        for a in _subdegrees(degs):
            b = tuple(d - x for d, x in zip(degs, a))
            if b == zero_degs:
                continue
            sb = coeffs[b]
            ca = c0.get(a)
            if ca is not None:
                known = known + ca * sb
            for i in range(len(gens)):
                cia = ci[i].get(a)
                if cia is not None:
                    known = known + cia * ((p_elems[i] + b[i] * ring.hbar(1)) * sb)

        # the b = 0 term contributes c0[d] + sum_i ci[d] p_i; choose the
        # corrections to cancel every stored hbar level >= 0
        fix0 = {}
        fixi = [dict() for _ in gens]
        jterms = {}
        for (bidx, lexps, h), v in known.terms.items():
            if h < 0:
                jterms[(bidx, lexps, h)] = v
                continue
            if bidx == 0:
                fix0[(0, lexps, h)] = -v
            elif bidx in gen_index:
                fixi[gen_index[bidx]][(0, lexps, h)] = -v
            else:
                raise BirkhoffError(
                    "positive hbar content outside the span of 1 and the "
                    "divisor classes at degree %r" % (degs,)
                )
        if fix0:
            c0[degs] = RingElem(ring, fix0, known.truncated)
        for i in range(len(gens)):
            if fixi[i]:
                ci[i][degs] = RingElem(ring, fixi[i], known.truncated)
        if jterms:
            jdata[(degs, zl)] = RingElem(ring, jterms, known.truncated)

    # window sufficiency: reading the 1/hbar^2 slice of c * S needs S-levels
    # down to -(2 + deg c0) resp. -(3 + deg ci); validate post hoc
    def topdeg(table):
        return max((e.max_hbar_degree() for e in table.values() if not e.is_zero()), default=None)

    need = 2
    d0 = topdeg(c0)
    if d0 is not None:
        need = max(need, 2 + d0)
    for i in range(len(gens)):
        di = topdeg(ci[i])
        if di is not None:
            need = max(need, 3 + di)
    if ring.hbar_min > -need:
        raise BirkhoffError(
            "hbar floor %d too shallow for exact bracket reads; need <= %d"
            % (ring.hbar_min, -need)
        )
    for table in (c0, *ci):
        for e in table.values():
            for (bidx, lexps, h) in e.terms:
                for pos, f in enumerate(ring.lambda_floor):
                    if f < 0 and lexps[pos] > 0:
                        raise BirkhoffError(
                            "normalizing coefficients climb above lambda^0; "
                            "window clipping would not be exact"
                        )

    def as_series(table):
        return QSeries(sring, {(d, zl): e for d, e in table.items()})

    cs = (as_series(c0),) + tuple(as_series(t) for t in ci)
    return BirkhoffData(j=QSeries(sring, jdata, prefactor=True), c=cs)


# ---------------------------------------------------------------------------
# mirror maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MirrorData:
    """The 1/hbar slice of J split into flat coordinates.

    ``corrections[i]`` is g_i with t_i = log q_i + g_i(q); ``sigma`` is the
    scalar (equivariant) part of the slice; ``inverse[i]`` is q_i(x) with
    x_i = e^{t_i}, obtained by exact reversion inside the degree box."""

    corrections: tuple
    sigma: QSeries
    inverse: tuple

    def jacobian(self):
        """det(d t_i / d log q_j) = det(delta_ij + theta_j g_i), exact."""
        n = len(self.corrections)
        sring = self.corrections[0].sring if n else None
        if sring is None:
            raise PipelineError("no mirror maps to differentiate")
        entries = [[self.corrections[i].theta(j) for j in range(n)] for i in range(n)]
        one = sring.monomial((0,) * n)
        for i in range(n):
            entries[i][i] = entries[i][i] + one
        total = None
        for perm in itertools.permutations(range(n)):
            sign = 1
            for a in range(n):
                for b in range(a + 1, n):
                    if perm[a] > perm[b]:
                        sign = -sign
            term = sring.monomial((0,) * n, coeff=sign)
            for i in range(n):
                term = term * entries[i][perm[i]]
            total = term if total is None else total + term
        return total


def extract_mirror_maps(j):
    sring = j.sring
    ring = sring.coeff
    gens = ring.algebra.generators
    gen_index = {ring.algebra.generator_index(g): pos for pos, g in enumerate(gens)}
    slice1 = j.hbar_slice(-1)
    gdata = [dict() for _ in gens]
    sdata = {}
    for key, elem in slice1.data.items():
        for (bidx, lexps, h), v in elem.terms.items():
            if bidx == 0:
                prev = sdata.setdefault(key, {})
                prev[(0, lexps, 0)] = v
            elif bidx in gen_index:
                if any(lexps):
                    raise PipelineError("mirror correction carries equivariant weights")
                prev = gdata[gen_index[bidx]].setdefault(key, {})
                prev[(0, lexps, 0)] = v
            else:
                raise PipelineError(
                    "1/hbar slice leaves the span of 1 and the divisor classes"
                )
    corrections = tuple(
        QSeries(sring, {k: RingElem(ring, t) for k, t in table.items()})
        for table in gdata
    )
    sigma = QSeries(sring, {k: RingElem(ring, t) for k, t in sdata.items()})
    inverse = series_reversion(corrections, sring)
    return MirrorData(corrections=corrections, sigma=sigma, inverse=tuple(inverse))


def normalize_j(j, mirror):
    """Levels 0, -1 and -2 of the bracket in the flat coordinates x,

        B(x) = e^{A / hbar} J(q(x)),  A = -(sum_i p_i g_i(q(x)) + sigma(q(x))).

    Composing with the inverse mirror map and multiplying by the exponential
    turns the prefactor normalization e^{sum p log q / hbar} into
    e^{sum p log x / hbar}.  Only the levels that are read are built: A sits
    at hbar level 0 and J keeps levels <= 0, so level -n of B needs the
    factors A^m / m! for m <= n and the J levels -n .. 0, each substituted
    on its own.  The returned plain series holds hbar levels 0, -1 and -2
    only.  Its 1/hbar slice cancels by construction, which is asserted.
    """
    sring = j.sring
    ring = sring.coeff
    gens = ring.algebra.generators
    arg = sring.zero()
    for i, g in enumerate(mirror.corrections):
        arg = arg - g.subs(mirror.inverse) * ring.p(gens[i])
    arg = arg - mirror.sigma.subs(mirror.inverse)
    arg = arg * ring.hbar(-1)
    j0, j1, j2 = (
        (j.hbar_slice(-n) * ring.hbar(-n)).subs(mirror.inverse) for n in range(3)
    )
    if not (arg * j0 + j1).is_zero():
        raise PipelineError("normalization failed to cancel the 1/hbar slice")
    return j0 + arg * arg * rat(1, 2) * j0 + arg * j1 + j2


def extract_w(normalized):
    """Double-bracket slice: the 1/hbar^2 coefficient of the normalized J."""
    return normalized.hbar_slice(-2)


# ---------------------------------------------------------------------------
# weight restriction and multicover inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WRestriction:
    """Components of a restricted double bracket.

    ``components`` maps (generator exponents, lambda exponents) to scalar
    q-series over ``sring``; lambda exponents refer to ``lambda_names``."""

    generator_names: tuple
    lambda_names: tuple
    sring: SeriesRing
    components: dict

    def component(self, gen_exps, lam_exps=()):
        key = (tuple(gen_exps), tuple(lam_exps))
        got = self.components.get(key)
        return got if got is not None else self.sring.zero()


def restrict_w(w, assignments=None):
    """Specialize generators and weights, splitting into scalar components.

    ``assignments`` maps generator or lambda names to 0, "keep", or, for
    lambda names, (target_name, sign).  Killing a lambda that appears with
    a negative exponent is an error; everything unlisted is kept."""
    sring = w.sring
    ring = sring.coeff
    assignments = dict(assignments or {})
    gens = ring.algebra.generators
    known = set(gens) | set(ring.lambda_names)
    for name in assignments:
        if name not in known:
            raise PipelineError("unknown name %r in restriction" % (name,))

    kill_gen = [assignments.get(g, "keep") == 0 for g in gens]
    lam_plan = []
    targets = []
    for name in ring.lambda_names:
        a = assignments.get(name, "keep")
        if a == 0:
            lam_plan.append(None)
            continue
        if a == "keep":
            a = (name, 1)
        tname, sign = str(a[0]), int(a[1])
        if sign not in (-1, 1):
            raise PipelineError("lambda signs must be +1 or -1")
        if tname not in targets:
            targets.append(tname)
        lam_plan.append((targets.index(tname), sign))

    scalar = SeriesRing(scalar_coeff_ring(), sring.variables, sring.box)
    basis = ring.algebra.basis
    parts = {}
    for (degs, logs), elem in w.data.items():
        if any(logs):
            raise PipelineError("restriction expects a log-free series")
        for (bidx, lexps, h), v in elem.terms.items():
            if h != 0:
                raise PipelineError("restriction expects an hbar-free slice")
            exps = basis[bidx]
            if any(k and e for k, e in zip(kill_gen, exps)):
                continue
            tl = [0] * len(targets)
            value = v
            ok = True
            for pos, e in enumerate(lexps):
                if e == 0:
                    continue
                plan = lam_plan[pos]
                if plan is None:
                    if e < 0:
                        raise PipelineError(
                            "cannot set %r to zero: it appears with a pole"
                            % (ring.lambda_names[pos],)
                        )
                    ok = False
                    break
                ti, sign = plan
                tl[ti] += e
                if sign < 0 and e % 2:
                    value = -value
            if not ok:
                continue
            key = (exps, tuple(tl))
            table = parts.setdefault(key, {})
            table[degs] = table.get(degs, rat(0)) + value
    components = {}
    for key, table in sorted(parts.items()):
        series = scalar.from_rational_terms({d: c for d, c in table.items() if c != 0})
        if not series.is_zero():
            components[key] = series
    return WRestriction(
        generator_names=gens,
        lambda_names=tuple(targets),
        sring=scalar,
        components=components,
    )


def scalar_table(series):
    """``{degs: rational}`` of a log-free series with rational coefficients."""
    table = {}
    for (degs, logs), value in series.rational_items():
        if any(logs):
            raise PipelineError("scalar reduction expects a log-free series")
        table[degs] = value
    return table


def polylog_invert(series, weight):
    """Solve series = sum_beta N_beta Li_weight(x^beta) for the N_beta."""
    out = {}
    for degs in series.sring.degree_keys():
        if not any(degs):
            if not series.coefficient(degs).is_zero():
                raise PipelineError("multicover inversion needs a vanishing constant term")
            continue
        total = series.coefficient(degs).scalar_value()
        common = 0
        for d in degs:
            common = math.gcd(common, d)
        for m in range(2, common + 1):
            if common % m:
                continue
            prev = out.get(tuple(d // m for d in degs))
            if prev is not None:
                total = total - prev / rat(m) ** weight
        if total != 0:
            out[degs] = total
    return out


@dataclass(frozen=True)
class GWTable:
    """Curve-class indexed invariants with the extraction's sign convention."""

    entries: dict

    def rows(self):
        return [(degs, self.entries[degs]) for degs in sorted(self.entries)]

    def render(self):
        return {
            ",".join(str(d) for d in degs): rat_str(v) for degs, v in self.rows()
        }


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """Every stage's output for one geometry and degree box.

    ``normalized`` is the bracket in the flat coordinates x on hbar levels
    0, -1 and -2 only (see :func:`normalize_j`); ``w`` is its 1/hbar^2
    slice."""

    geometry: object
    sring: SeriesRing
    i_series: QSeries
    factorization: BirkhoffData
    mirror: MirrorData
    normalized: QSeries
    w: QSeries


_PIPELINE_CACHE = {}


def run_pipeline(geom, box):
    key = (geom.key, tuple(box))
    got = _PIPELINE_CACHE.get(key)
    if got is not None:
        return got
    sring = default_series_ring(geom, box)
    i_series = ifunction(geom, sring)
    fact = birkhoff(i_series)
    mirror = extract_mirror_maps(fact.j)
    normalized = normalize_j(fact.j, mirror)
    w = extract_w(normalized)
    result = PipelineResult(
        geometry=geom,
        sring=sring,
        i_series=i_series,
        factorization=fact,
        mirror=mirror,
        normalized=normalized,
        w=w,
    )
    _PIPELINE_CACHE[key] = result
    return result


def _extraction_rule(geom):
    """How a family's invariants sit in its restricted double bracket: the
    assignments for :func:`restrict_w` and the (component key, divisor
    index i) pairs whose component is sum_beta N_beta beta_i Li_2(x^beta)."""
    kill = {g: 0 for g in geom.generators}
    zero_gens = (0,) * len(geom.generators)
    nlam = len(geom.lambda_names)
    if geom.family == "a_n":
        return kill, tuple(
            ((zero_gens, tuple(2 if j == i else 0 for j in range(nlam))), i)
            for i in range(nlam)
        )
    if geom.family in ("x_k", "x_k_factored", "d1"):
        return kill, (((zero_gens, (2,) if nlam == 1 else (1, 1)), 0),)
    if geom.family == "y_k":
        # no weights here; the square of the fiber class plays the role the
        # quadratic weight does for the bundle geometries
        return {}, ((((0, 2), ()), 0),)
    raise PipelineError("no curve class extraction rule for family %r" % (geom.family,))


def gw_table(geom, box):
    """Instanton numbers from the restricted double bracket.

    For the chain geometries the lambda_i^2 component equals
    sum_beta N_beta beta_i Li_2(x^beta); for the single-curve bundle
    families the quadratic weight component plays the same role with
    beta_i replaced by the curve degree."""
    assignments, components = _extraction_rule(geom)
    restriction = restrict_w(run_pipeline(geom, box).w, assignments)
    entries = {}
    for key, i in components:
        for beta, value in polylog_invert(restriction.component(*key), 2).items():
            if beta[i] == 0:
                raise PipelineError(
                    "component %r shows class %r with zero pairing" % (key, beta)
                )
            value = value / rat(beta[i])
            prev = entries.setdefault(beta, value)
            if prev != value:
                raise PipelineError(
                    "inconsistent invariants for class %r: %s vs %s"
                    % (beta, rat_str(prev), rat_str(value))
                )
    return GWTable(entries)


# ---------------------------------------------------------------------------
# Cross-presentation comparisons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two runs; ``details`` holds labelled exact data."""

    label: str
    passed: bool
    details: tuple

    @classmethod
    def from_checks(cls, label, checks):
        """Report over named checks ``(name, ok)``: passed when all hold, each
        detail ``ok`` or ``mismatch``."""
        return cls(
            label=label,
            passed=all(ok for _, ok in checks),
            details=tuple((name, "ok" if ok else "mismatch") for name, ok in checks),
        )


def factored_consistency_check(k, action, box):
    """Invariants of the direct bundle presentation against the split one.

    The direct presentation uses one weighted column of charge k; the split
    presentation trades it for k columns of charge 1 and 2+k of charge -1.
    Both must produce identical tables."""
    direct = gw_table(geometry("x_k", k, action), box)
    split = gw_table(geometry("x_k_factored", k, action), box)
    passed = direct == split
    details = (
        ("direct", direct.render()),
        ("split", split.render()),
    )
    return ComparisonReport(
        label="x_%d %s presentations through %s" % (k, action, "x".join(map(str, box))),
        passed=passed,
        details=details,
    )


def fibration_correspondence_check(degree=4, fiber_degree=2):
    """Diagonal-action bundle data against the projective-bundle data.

    Checks that the k = 0 diagonal geometry and its projective counterpart
    share mirror corrections (q -> q_1, weight -> second divisor class),
    share the two quadratic double-bracket components, and give the same
    table under the class identification d -> (d, 0)."""
    gx = geometry("x_k", 0, "diagonal")
    gy = geometry("y_k", 0)
    resx = run_pipeline(gx, (degree,))
    resy = run_pipeline(gy, (degree, fiber_degree))

    checks = []

    # mirror corrections: g(q) vs g_1(q_1); sigma's weight part vs g_2;
    # everything on the projective side must be free of the second variable
    gxc = resx.mirror.corrections[0]
    g1, g2 = resy.mirror.corrections
    ok = True
    for n in range(degree + 1):
        cx = gxc.coefficient((n,)).scalar_value()
        sx = resx.mirror.sigma.coefficient((n,)).coefficient(0, (1,), 0)
        for m in range(fiber_degree + 1):
            c1 = g1.coefficient((n, m))
            c2 = g2.coefficient((n, m))
            v1 = 0 if c1.is_zero() else c1.scalar_value()
            v2 = 0 if c2.is_zero() else c2.scalar_value()
            if m == 0:
                ok = ok and v1 == cx and v2 == sx
            else:
                ok = ok and v1 == 0 and v2 == 0
    checks.append(("mirror maps", ok))

    # double bracket components
    wx = restrict_w(resx.w)
    wy = restrict_w(resy.w)
    okw = True
    for x_key, y_key in ((((0,), (2,)), ((0, 2), ())), (((1,), (1,)), ((1, 1), ()))):
        ax = scalar_table(wx.component(*x_key))
        ay = scalar_table(wy.component(*y_key))
        lifted = {}
        for degs, value in ay.items():
            if degs[1] != 0:
                okw = False
            lifted[(degs[0],)] = value
        okw = okw and lifted == ax
    checks.append(("bracket components", okw))

    # tables under d -> (d, 0)
    tx = gw_table(gx, (degree,))
    ty = gw_table(gy, (degree, fiber_degree))
    lifted = {(d[0],): v for d, v in ty.entries.items() if all(x == 0 for x in d[1:])}
    okt = lifted == tx.entries and len(lifted) == len(ty.entries)
    checks.append(("tables", okt))

    return ComparisonReport.from_checks(
        "bundle/projective correspondence at k=0 through degree %d" % degree, checks
    )

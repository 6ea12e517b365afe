"""Independent reference implementations used to cross-check the package.

Everything here is deliberately primitive: dense coefficient lists over
fractions.Fraction, direct combinatorial formulas, no imports from the
package under test.  Agreement between these and the package is evidence
that neither side inherited the other's bugs.

The last sections are the exception: earlier constructions of the package,
kept as written before a rewrite.  These are the substitution and reversion
of ``eqmirror.series`` before the power-table rewrite, the normalization and
F_t period before the shared image table, and the I-series that multiplied
in each reciprocal factor's expansion before ``ifunction`` divided by it.
They run on the package's own types, so each rewrite can be compared with
them term by term and flag by flag.
"""

import math
from fractions import Fraction
from math import factorial


def ser_trim(a, order):
    a = list(a[: order + 1])
    a += [Fraction(0)] * (order + 1 - len(a))
    return [Fraction(c) for c in a]


def ser_mul(a, b, order):
    a = ser_trim(a, order)
    b = ser_trim(b, order)
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def ser_div(a, b, order):
    """a / b by long division; b[0] must be nonzero."""
    b = ser_trim(b, order)
    rem = ser_trim(a, order)
    out = []
    for n in range(order + 1):
        c = rem[n] / b[0]
        out.append(c)
        for j in range(n, order + 1):
            rem[j] -= c * b[j - n]
    return out


def ser_pow(a, n, order):
    out = ser_trim([1], order)
    for _ in range(n):
        out = ser_mul(out, a, order)
    return out


def ser_exp(a, order):
    # a[0] must vanish
    a = ser_trim(a, order)
    assert a[0] == 0
    out = ser_trim([1], order)
    term = ser_trim([1], order)
    for m in range(1, order + 1):
        term = ser_mul(term, a, order)
        term = [c / m for c in term]
        out = [x + y for x, y in zip(out, term)]
    return out


def ser_log(a, order):
    # a[0] must be 1
    a = ser_trim(a, order)
    assert a[0] == 1
    u = [Fraction(0)] + a[1:]
    out = [Fraction(0)] * (order + 1)
    term = ser_trim([1], order)
    for m in range(1, order + 1):
        term = ser_mul(term, u, order)
        sign = Fraction((-1) ** (m + 1), m)
        out = [x + sign * y for x, y in zip(out, term)]
    return out


def binom_rat(top, k):
    """Generalized binomial coefficient with rational or negative top."""
    top = Fraction(top)
    out = Fraction(1)
    for j in range(k):
        out *= (top - j) / (j + 1)
    return out


def lagrange_inverse(c, eps, order):
    """Coefficients of q(x) solving x = q (1 + eps q)^c.

    Lagrange inversion: [x^n] q = (1/n) [q^(n-1)] (1+eps q)^(-c n),
    which collapses to a single binomial coefficient.
    """
    out = [Fraction(0), Fraction(1)]
    for n in range(2, order + 1):
        out.append(binom_rat(-c * n, n - 1) * Fraction(eps) ** (n - 1) / n)
    return ser_trim(out, order)


def instanton_coefficient(k, d):
    """Prepotential coefficient from the ratio-of-products arrangement."""
    s = (k + 1) ** 2
    num = 1
    for j in range((s - 1) * d + 1, s * d):
        num *= j
    sign = -((-1) ** (k * d))
    return Fraction(sign * num, factorial(d) * d * d)


def mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def multicover_invert(values, weight):
    """n_d from F_d = sum_{m | d} n_{d/m} / m^weight by Mobius inversion."""
    out = {}
    for d in values:
        total = Fraction(0)
        for m in range(1, d + 1):
            if d % m == 0 and (d // m) in values:
                total += Fraction(mobius(m), m**weight) * Fraction(values[d // m])
        if total:
            out[d] = total
    return out


def polylog_coeffs(weight, order):
    """Li_weight(x) coefficient list."""
    return [Fraction(0)] + [Fraction(1, d**weight) for d in range(1, order + 1)]


# ---------------------------------------------------------------------------
# the chain and star geometries as two hand-built families: the keyword
# arguments of GeometrySpec and the signed class tables, written out
# separately for each family
# ---------------------------------------------------------------------------


def a_n_fields(n):
    mori = []
    for r in range(1, n + 1):
        row = [0] * (n + 2)
        row[r - 1] += 1
        row[r] -= 2
        row[r + 1] += 1
        mori.append(tuple(row))
    names = tuple("lam%d" % i for i in range(1, n + 1))
    weights = [None]
    for i in range(1, n + 1):
        weights.append((names[i - 1], -1))
    weights.append(None)
    gens = tuple("p%d" % i for i in range(1, n + 1))
    rels = []
    for i in range(n):
        for j in range(i, n):
            m = [0] * n
            m[i] += 1
            m[j] += 1
            rels.append({tuple(m): 1})
    return dict(
        name="a_n(%d)" % n,
        mori=tuple(mori),
        weights=tuple(weights),
        generators=gens,
        relations=tuple(rels),
        lambda_names=names,
        family="a_n",
        parameter=n,
        action="generic",
    )


def trivalent_fields(action):
    if action == "generic":
        w = (("lam1", 1), ("lam2", 1), ("lam3", 1))
        names = ("lam1", "lam2", "lam3")
    elif action == "diagonal":
        w = (("lam1", 1), ("lam", 1), ("lam", 1))
        names = ("lam1", "lam")
    else:
        w = (("lam1", 1), ("lam", 1), ("lam", -1))
        names = ("lam1", "lam")
    rels = []
    for i in range(3):
        for j in range(i, 3):
            m = [0, 0, 0]
            m[i] += 1
            m[j] += 1
            rels.append({tuple(m): 1})
    return dict(
        name="trivalent(%s)" % action,
        mori=(
            (1, 0, 0, 1, -1, -1),
            (0, 1, 0, -1, 1, -1),
            (0, 0, 1, -1, -1, 1),
        ),
        weights=(None, None, None) + w,
        generators=("p1", "p2", "p3"),
        relations=tuple(rels),
        lambda_names=names,
        family="trivalent",
        parameter=None,
        action=action,
    )


def chain_classes(n):
    """Consecutive index intervals of the length-n chain."""
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(tuple(1 if i <= m <= j else 0 for m in range(n)))
    return tuple(out)


def trivalent_classes(action):
    """Signed classes of the three-curve star: the pair terms flip under
    the antidiagonal action."""
    pair = 1 if action == "diagonal" else -1
    classes = [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)]
    classes += [((1, 1, 0), pair), ((1, 0, 1), pair), ((0, 1, 1), pair)]
    return tuple(classes)

# ---------------------------------------------------------------------------
# the substitution and reversion before the power-table rewrite, on the
# package's series type
# ---------------------------------------------------------------------------

from eqmirror.exact_core import rat  # noqa: E402
from eqmirror.series import QSeries, SeriesError  # noqa: E402


def term_by_term_subs(self, images):
    """``self.subs(images)`` as one unit power per term and variable:
    substitute q_i -> images[i], each of the shape x_i * (1 + O(x)).

    Log-slot keys transform as log q_i -> log x_i + log U_i where
    U_i = images[i] / x_i.  The result lives in the ring of the images.
    """
    self._require_plain("substitution")
    images = tuple(images)
    if len(images) != self.sring.nvars:
        raise SeriesError("one image per variable is required")
    target = images[0].sring
    nv = target.nvars
    if nv != self.sring.nvars:
        raise SeriesError("substitution must preserve the variable count")
    z = (0,) * nv

    units = []
    for i, img in enumerate(images):
        if img.sring != target or img.prefactor or img.has_logs():
            raise SeriesError("images must be plain log-free series in one ring")
        shifted = {}
        for (degs, logs), c in img.data.items():
            if degs[i] < 1:
                raise SeriesError(
                    f"image of variable {self.sring.variables[i]} is not divisible by it"
                )
            shifted[(tuple(d - (1 if j == i else 0) for j, d in enumerate(degs)), logs)] = c
        unit = QSeries(target, shifted)
        if unit.constant_term() != target.coeff.one():
            raise SeriesError("images must have unit leading coefficient")
        units.append(unit)

    max_deg = [0] * nv
    max_log = [0] * nv
    for degs, logs in self.data:
        for i in range(nv):
            max_deg[i] = max(max_deg[i], degs[i])
            max_log[i] = max(max_log[i], logs[i])

    unit_pows = []
    for i, u in enumerate(units):
        pows = [target.one()]
        for _ in range(max_deg[i]):
            pows.append(pows[-1] * u)
        unit_pows.append(pows)
    logu_pows = []
    for i, u in enumerate(units):
        pows = [target.one()]
        if max_log[i]:
            lu = u.log()
            for _ in range(max_log[i]):
                pows.append(pows[-1] * lu)
        logu_pows.append(pows)

    total = target.zero()
    for (degs, logs), c in self.data.items():
        term = target.monomial(degs, coeff=c)
        for i in range(nv):
            if degs[i]:
                term = term * unit_pows[i][degs[i]]
        for i in range(nv):
            if logs[i]:
                expanded = target.zero()
                for a in range(logs[i] + 1):
                    logx = tuple(a if j == i else 0 for j in range(nv))
                    expanded = expanded + target.monomial(
                        z, logx, rat(math.comb(logs[i], a))
                    ) * logu_pows[i][logs[i] - a]
                term = term * expanded
        total = total + term
    return total


def fixed_point_reversion(gs, sring):
    """``series_reversion`` with every pass over the full box: solve
    log q_i + g_i(q) = log x_i for q_i(x) = x_i exp(-g_i(q(x))).

    ``gs`` are the correction series (no constant term, no logs).  Returns
    the tuple of inverted coordinates in ``sring`` (whose variables are read
    as the flat coordinates x).  The round trip is verified exactly inside
    the degree box and a failure raises :class:`SeriesError`.

    The fixed point q <- x exp(-g(q)) is iterated sum(box) - 1 times.  The
    start q = x is exact through total degree 1, because g has no constant
    term.  If q is exact through total degree k, an error of total degree
    >= k + 1 in q moves g(q) only at total degree >= k + 1 (again because g
    has no constant term), so the next x exp(-g(q)) is exact through total
    degree k + 1.  After pass k, q is therefore exact through total degree
    k + 1, and every degree in the box is reached after sum(box) - 1 passes.
    """
    gs = tuple(gs)
    nv = sring.nvars
    if len(gs) != nv:
        raise SeriesError("one correction series per variable is required")
    z = (0,) * nv
    for g in gs:
        if g.prefactor or g.has_logs():
            raise SeriesError("corrections must be plain log-free series")
        if any(degs == z for (degs, _) in g.data):
            raise SeriesError("corrections must have no constant term")

    current = tuple(sring.variable(i) for i in range(nv))
    for _ in range(sum(sring.box) - 1):
        current = tuple(
            sring.variable(i) * (-(term_by_term_subs(gs[i], current))).exp() for i in range(nv)
        )

    # Round trip through the forward map x_i(q) = q_i exp(g_i(q)).  Composing
    # in this direction only raises degrees, so the identity is exact in the
    # rectangular box (the backward composition is not: log(q_i(x)/x_i) at
    # top degree would need coefficients beyond it).
    forward = tuple(sring.variable(i) * gs[i].exp() for i in range(nv))
    for i in range(nv):
        if not (term_by_term_subs(current[i], forward) - sring.variable(i)).is_zero():
            raise SeriesError("coordinate reversion failed its round-trip check")
    return current


# ---------------------------------------------------------------------------
# the normalization and the F_t period before they substituted through the
# shared image table
# ---------------------------------------------------------------------------

from eqmirror.closed_forms import genus0_data, prepotential_coefficient  # noqa: E402


def six_call_normalize_j(j, mirror):
    """``pipeline.normalize_j`` with one substitution per mirror correction,
    one for sigma and one per J level: levels 0, -1 and -2 of
    e^{A / hbar} J(q(x)), A = -(sum_i p_i g_i(q(x)) + sigma(q(x)))."""
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
    assert (arg * j0 + j1).is_zero()
    return j0 + arg * arg * rat(1, 2) * j0 + arg * j1 + j2


def power_loop_period_ft(k, sring):
    """``closed_forms.period_ft`` by explicit powers of x(q): F_t in the q
    coordinate, triple t^2/2 plus sum_d d c_d x(q)^d."""
    data = genus0_data(k)
    t = data.t_series(sring)
    x = data.forward_map(sring)
    out = t * t * (data.triple * rat(1, 2))
    xpow = sring.one()
    for d in range(1, sring.box[0] + 1):
        xpow = xpow * x
        out = out + xpow * (prepotential_coefficient(k, d) * rat(d))
    return out


def assert_same_series(got, want):
    """Same terms, the same ``truncated`` flag on every coefficient, and the
    same prefactor flag."""
    assert got.sring == want.sring
    assert got.prefactor == want.prefactor
    assert got.data == want.data
    assert {k: c.truncated for k, c in got.data.items()} == {
        k: c.truncated for k, c in want.data.items()
    }


# ---------------------------------------------------------------------------
# the I-series with every reciprocal factor multiplied in as its expansion,
# before ``ifunction`` divided by each factor
# ---------------------------------------------------------------------------

from eqmirror.exact_core import (  # noqa: E402
    expand_reciprocal_at_infinity,
    reciprocal_hbar_linear,
)


def coefficient_factors(geom, degs):
    """The linear factors of C_d as ``(charges, m, weight)`` lists:
    numerators, 1/lambda reciprocals and 1/hbar reciprocals."""
    numerators = []
    at_infinity = []
    hbar_adic = []
    for j in range(geom.ncols):
        charges = tuple(row[j] for row in geom.mori)
        pairing = geom.column_pairing(degs, j)
        w = geom.weights[j]
        if pairing == 0:
            continue
        if pairing < 0:
            for m in range(pairing + 1, 1):
                numerators.append((charges, m, w))
        elif w is not None and w[0] in geom.infinity_weights:
            for m in range(1, pairing + 1):
                at_infinity.append((charges, m, w))
        else:
            for m in range(1, pairing + 1):
                hbar_adic.append((charges, m, w))
    return numerators, at_infinity, hbar_adic


def from_scratch_coefficient(geom, ring, degs, deep=False, clip=True):
    """C_d built from scratch, every factor multiplied in per degree and
    each reciprocal as its Laurent expansion: the construction the running
    product replaced, kept as its oracle.

    ``deep`` lowers the construction's hbar floor by its ceiling.  No partial
    product reaches above the ceiling, so the orders a clipped 1/hbar
    expansion lacks then stay below the ring's floor, and every retained
    term is exact.  Without it the construction loses terms near the floor
    on some custom geometries.  ``clip=False`` returns the product in the
    construction's own wider ring.
    """
    numerators, at_infinity, hbar_adic = coefficient_factors(geom, degs)
    lam_pad = sum(
        1 for charges, m, w in numerators if w is not None and w[0] in geom.infinity_weights
    )
    ceiling = len(numerators)
    for floor in ring.lambda_floor:
        if floor < 0:
            ceiling += -(floor - lam_pad)
    work = ring.widened(
        lam_extra=lam_pad,
        h_lo=ceiling if deep else 0,
        h_hi=max(0, ceiling - ring.hbar_max),
    )
    total = work.one()
    for charges, m, w in numerators:
        form = work.linear_form(charges, m, w)
        if form.is_zero():
            continue
        total = total * form
    for charges, m, w in at_infinity:
        form = work.linear_form(charges, m, w)
        total = total * expand_reciprocal_at_infinity(form, w[0])
    for charges, m, w in hbar_adic:
        form = work.linear_form(charges, m, w)
        total = total * reciprocal_hbar_linear(form)
    return ring.convert(total) if clip else total


def from_scratch_ifunction(geom, sring, deep=False):
    zl = (0,) * sring.nvars
    ring = sring.coeff
    data = {
        (degs, zl): from_scratch_coefficient(geom, ring, degs, deep) if any(degs) else ring.one()
        for degs in sring.degree_keys()
    }
    return QSeries(sring, data, prefactor=True)

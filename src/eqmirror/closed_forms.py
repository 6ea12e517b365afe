"""Closed-form data for the local curve families and their exact checks.

The one-parameter family is the rank-two bundle of splitting type
(k, -2-k) over the projective line, k >= 1, under the antidiagonal
action.  Its mirror map, Yukawa coupling, quantum differential operator
and genus-1 potential all admit rational closed forms, collected here
together with the chain and trivalent prepotentials and the genus-1
identity for the two-curve chain.  Everything is exact; check functions
compare truncated series for identity and report mismatches rather than
tolerances.
"""

import math
from dataclasses import dataclass

from .exact_core import rat, rat_str
from .givental import ThetaOperator, geometry
from .pipeline import ComparisonReport, polylog_invert, restrict_w, run_pipeline, scalar_table
from .series import (
    QSeries,
    SeriesRing,
    polylog_series,
    scalar_coeff_ring,
    series_reversion,
)


class ClosedFormError(ValueError):
    pass


# ---------------------------------------------------------------------------
# genus-0 data for the bundle family
# ---------------------------------------------------------------------------


def epsilon(k):
    """Sign (-1)^(k+1) governing the mirror map's unit factors."""
    return 1 if k % 2 else -1


def triple_intersection(k):
    """Equivariant triple self-intersection of the zero section."""
    _require_bundle_k(k)
    return rat(-1, k * (k + 2))


def prepotential_coefficient(k, d):
    """Coefficient of e^{dt} in the genus-0 prepotential.

    The instanton part of the prepotential is a single sum over the
    multiples of the zero section; the coefficients are ratios of
    factorials with an alternating sign for even k.
    """
    _require_bundle_k(k)
    if d < 1:
        raise ClosedFormError("instanton degrees start at 1")
    s = (k + 1) ** 2
    num = math.factorial(s * d - 1)
    den = math.factorial(d) * d * d * math.factorial((s - 1) * d)
    return rat(-((-1) ** (k * d)) * num, den)


def _require_bundle_k(k):
    if not isinstance(k, int) or k < 1:
        raise ClosedFormError(
            "closed forms cover k >= 1; the k = 0 and k = -1 bundles divide "
            "by k(k+2) and are handled by the series pipeline alone"
        )


def scalar_series_ring(order, names=("q",)):
    """Series ring over plain rationals, the common home of the checks here."""
    if isinstance(order, int):
        order = (order,) * len(names)
    return SeriesRing(scalar_coeff_ring(), tuple(names), tuple(order))


def _unit_series(sring, linear):
    terms = {(0,) * sring.nvars: rat(1)}
    terms[tuple(1 if j == 0 else 0 for j in range(sring.nvars))] = rat(linear)
    return sring.from_rational_terms(terms)


@dataclass(frozen=True)
class ClosedGenus0:
    """Genus-0 package for one k: mirror map, Yukawa coupling, prepotential."""

    k: int
    epsilon: int
    triple: object

    def units(self, sring):
        """The mirror map's two units 1 + eps q and 1 + eps (k+1)^2 q."""
        return tuple(_unit_series(sring, self.epsilon * s) for s in (1, (self.k + 1) ** 2))

    def qdt_inverse(self, sring):
        """qdt^{-1} = 1/theta t = (1 + eps q)/(1 + eps (k+1)^2 q), the factor
        of the Yukawa coupling triple * qdt^{-1}, built from the two units."""
        unit, shifted = self.units(sring)
        return unit * shifted.invert()

    def correction(self, sring):
        """g(q) with t = log q + g(q), here k(k+2) log(1 + eps q)."""
        return self.units(sring)[0].log() * rat(self.k * (self.k + 2))

    def t_series(self, sring):
        return sring.log_variable(0) + self.correction(sring)

    def forward_map(self, sring):
        """x(q) = q e^{g(q)}, the exponentiated flat coordinate."""
        return sring.variable(0) * self.correction(sring).exp()

    def mirror_inverse(self, sring):
        """q(x) solving the mirror map, exact through the ring's box."""
        return series_reversion((self.correction(sring),), sring)[0]


def genus0_data(k):
    _require_bundle_k(k)
    return ClosedGenus0(k, epsilon(k), triple_intersection(k))


def prepotential_derivative(k, sring, power):
    """x-expansion of d^power/dt^power of the instanton prepotential."""
    terms = {}
    key = lambda d: tuple(d if j == 0 else 0 for j in range(sring.nvars))
    for d in range(1, sring.box[0] + 1):
        terms[key(d)] = prepotential_coefficient(k, d) * rat(d) ** power
    return sring.from_rational_terms(terms)


def amodel_prepotential(k, sring):
    """Full genus-0 prepotential triple t^3/6 + instanton sum, t = log x."""
    classical = sring.monomial(
        (0,) * sring.nvars, (3,) + (0,) * (sring.nvars - 1), triple_intersection(k) * rat(1, 6)
    )
    return classical + prepotential_derivative(k, sring, 0)


def yukawa_check(k, degree=6):
    """Third t-derivative of the prepotential against triple / qdt.

    Both sides are series in x = e^t: the instanton side is
    triple + sum_d c_d d^3 x^d, the closed side is triple * qdt^{-1}
    pulled back through the mirror map.
    """
    data = genus0_data(k)
    sring = scalar_series_ring(degree)
    lhs = sring.from_rational_terms({(0,): data.triple}) + prepotential_derivative(
        k, sring, 3
    )
    inverse = data.mirror_inverse(sring)
    rhs = data.qdt_inverse(sring).subs((inverse,)) * data.triple
    diff = lhs - rhs
    return ComparisonReport(
        label="yukawa closed form k=%d through x^%d" % (k, degree),
        passed=diff.is_zero(),
        details=(("residual", "0" if diff.is_zero() else repr(diff)),),
    )


def ftt_identity_check(k, degree=6):
    """Second t-derivative of the prepotential against triple * log q(t)."""
    data = genus0_data(k)
    sring = scalar_series_ring(degree)
    lhs = sring.log_variable(0) * data.triple + prepotential_derivative(k, sring, 2)
    inverse = data.mirror_inverse(sring)
    logq = sring.log_variable(0) - data.correction(sring).subs((inverse,))
    rhs = logq * data.triple
    diff = lhs - rhs
    first = None
    if not diff.is_zero():
        first = min(degs for (degs, logs), v in diff.rational_items() if v != 0)
    return ComparisonReport(
        label="second-derivative identity k=%d through x^%d" % (k, degree),
        passed=diff.is_zero(),
        details=(("first mismatch", "none" if first is None else str(first)),),
    )


# ---------------------------------------------------------------------------
# quantum differential operator
# ---------------------------------------------------------------------------


def pf_operator(k, sring):
    """theta^2 (qdt)^{-1} theta with the middle factor expanded to the box."""
    if sring.nvars != 1:
        raise ClosedFormError("the quantum differential operator is univariate")
    ring = sring.coeff
    theta = ThetaOperator.theta(ring, 1, 0, weighted=False)
    middle = ThetaOperator(
        ring,
        1,
        {(degs, (0,)): c for (degs, _), c in genus0_data(k).qdt_inverse(sring).data.items()},
        weighted=False,
    )
    return theta * theta * middle * theta


def period_ft(k, sring):
    """F_t in the q coordinate: triple t^2/2 plus the instanton sum on x(q)."""
    data = genus0_data(k)
    t = data.t_series(sring)
    x = data.forward_map(sring)
    out = t * t * (data.triple * rat(1, 2))
    xpow = sring.one()
    for d in range(1, sring.box[0] + 1):
        xpow = xpow * x
        out = out + xpow * (prepotential_coefficient(k, d) * rat(d))
    return out


def pf_check(k, degree=6):
    """The operator annihilates the period triple {1, t, F_t}."""
    sring = scalar_series_ring(degree)
    op = pf_operator(k, sring)
    solutions = (
        ("1", sring.one()),
        ("t", genus0_data(k).t_series(sring)),
        ("F_t", period_ft(k, sring)),
    )
    details = []
    passed = True
    for name, sol in solutions:
        ok = op.apply(sol).is_zero()
        passed = passed and ok
        details.append((name, "annihilated" if ok else "residual"))
    return ComparisonReport(
        label="quantum differential operator k=%d through q^%d" % (k, degree),
        passed=passed,
        details=tuple(details),
    )


# ---------------------------------------------------------------------------
# genus 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedGenus1:
    """Genus-1 potential in B-model form and its flat-coordinate expansion."""

    genus0: ClosedGenus0

    def exponents(self):
        """The potential as a log ansatz over the two units and qdt^{-1}:
        unit exponent (k+1)^2/24 - 5/12, shifted unit 11/24, jacobian 1/2,
        and no log x term."""
        s = (self.genus0.k + 1) ** 2
        return Genus1Fit(
            coordinate_exponents=(rat(0),),
            component_exponents=(rat(s, 24) - rat(5, 12), rat(11, 24)),
            jacobian_exponent=rat(1, 2),
        )

    def q_series(self, sring):
        fit = self.exponents()
        unit, shifted = self.genus0.units(sring)
        return (
            unit.log() * fit.component_exponents[0]
            + shifted.log() * fit.component_exponents[1]
            + self.genus0.qdt_inverse(sring).log() * fit.jacobian_exponent
        )

    def t_series(self, sring):
        inverse = self.genus0.mirror_inverse(sring)
        return self.q_series(sring).subs((inverse,))


def genus1_data(k):
    return ClosedGenus1(genus0=genus0_data(k))


# first instanton levels of the two smallest t-expansions, kept as frozen
# regression anchors for the command line's verification report
GENUS1_REFERENCE = {
    1: (rat(1, 12), rat(-1, 24), rat(-29, 36), rat(499, 48), rat(-517, 5)),
    2: (rat(-1, 12), rat(19, 24), rat(899, 36), rat(27259, 48), rat(733289, 60)),
}


def genus1_reference_check(k, degree=5):
    """t-expansion of the closed form against the frozen anchors."""
    if k not in GENUS1_REFERENCE:
        raise ClosedFormError("reference coefficients are stored for k = 1, 2 only")
    sring = scalar_series_ring(degree)
    series = genus1_data(k).t_series(sring)
    got = tuple(series.coefficient((d,)).scalar_value() for d in range(1, degree + 1))
    expected = GENUS1_REFERENCE[k][:degree]
    return ComparisonReport(
        label="genus-1 t-expansion k=%d through x^%d" % (k, degree),
        passed=got == expected,
        details=(
            ("computed", " ".join(rat_str(v) for v in got)),
            ("expected", " ".join(rat_str(v) for v in expected)),
        ),
    )


@dataclass(frozen=True)
class Genus1Fit:
    """Exact exponents of a log ansatz for a genus-1 potential.

    The fitted shape is
        target = sum_i a_i log x_i
               + sum_j b_j log D_j(q(x))
               + c log J(q(x)),
    with a read off the pure log keys, b solved exactly, and c pinned by
    the caller: on the mirror-map locus log J always lies in the rational
    span of the log D_j for the families here, so the jacobian exponent is
    not an independent unknown.
    """

    coordinate_exponents: tuple
    component_exponents: tuple
    jacobian_exponent: object


def _solve_exact(rows, rhs):
    """Solve an overdetermined exact linear system or raise."""
    if not rows:
        raise ClosedFormError("no log-ansatz fit: empty system")
    m = len(rows[0])
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    pivots = []
    used = [False] * len(aug)
    for col in range(m):
        prow = next((i for i, r in enumerate(aug) if not used[i] and r[col] != 0), None)
        if prow is None:
            raise ClosedFormError("no log-ansatz fit: singular exponent system")
        used[prow] = True
        pivots.append((col, prow))
        scale = aug[prow][col]
        aug[prow] = [v / scale for v in aug[prow]]
        for i, r in enumerate(aug):
            if i != prow and r[col] != 0:
                f = r[col]
                aug[i] = [v - f * w for v, w in zip(r, aug[prow])]
    for i, r in enumerate(aug):
        if not used[i] and r[m] != 0:
            raise ClosedFormError(
                "no log-ansatz fit: residual %s remains" % rat_str(r[m])
            )
    sol = [rat(0)] * m
    for col, prow in pivots:
        sol[col] = aug[prow][m]
    return sol


def genus1_ansatz_fit(components, jacobian, target, inverse, jacobian_exponent=rat(1, 2)):
    """Fit log-ansatz exponents for a genus-1 potential, exactly.

    components and jacobian are unit series of the B-side coordinates in
    the target's series ring; target is the potential in flat coordinates,
    linear log keys allowed; inverse is the tuple q_i(x) from the mirror map.
    Passing jacobian_exponent=None adds c to the unknowns; expect the
    singular-system error when log J is dependent on the components.
    """
    sring = target.sring
    nv = sring.nvars
    z = (0,) * nv
    inverse = tuple(inverse)
    comps = tuple(components)
    if not all(isinstance(s, QSeries) and s.sring == sring for s in comps + (jacobian,)):
        raise ClosedFormError("fit inputs must be series in the target's series ring")

    power = {}
    for (degs, logs), value in target.rational_items():
        if not any(logs):
            if degs == z:
                if value != 0:
                    raise ClosedFormError("no log-ansatz fit: constant offset in target")
            else:
                power[degs] = value
        elif sum(logs) != 1 or degs != z:
            raise ClosedFormError("no log-ansatz fit: nonlinear log term in target")
    coordinate = tuple(
        target.coefficient(z, tuple(1 if j == i else 0 for j in range(nv))).scalar_value()
        for i in range(nv)
    )

    basis = [comp.subs(inverse).log() for comp in comps]
    logjac = jacobian.subs(inverse).log()
    resid = sring.from_rational_terms(power)
    if jacobian_exponent is not None:
        resid = resid - logjac * rat(jacobian_exponent)
    else:
        basis.append(logjac)

    rows, rhs = [], []
    for degs in sring.degree_keys():
        if not any(degs):
            continue
        rows.append([b.coefficient(degs).scalar_value() for b in basis])
        rhs.append(resid.coefficient(degs).scalar_value())
    sol = _solve_exact(rows, rhs)

    if jacobian_exponent is None:
        return Genus1Fit(coordinate, tuple(sol[:-1]), sol[-1])
    return Genus1Fit(coordinate, tuple(sol), rat(jacobian_exponent))


def bundle_genus1_fit(k, degree=6):
    """Fit of the bundle family's genus-1 t-expansion over its two units."""
    closed = genus1_data(k)
    sring = scalar_series_ring(degree)
    inverse = (closed.genus0.mirror_inverse(sring),)
    target = closed.q_series(sring).subs(inverse)
    return genus1_ansatz_fit(
        closed.genus0.units(sring), closed.genus0.qdt_inverse(sring), target, inverse
    )


def genus1_fit_check(k, degree=6):
    """Fitted exponents of the bundle's genus-1 potential against the closed
    form's own (``ClosedGenus1.exponents``)."""
    fit = bundle_genus1_fit(k, degree)
    return ComparisonReport(
        label="genus-1 ansatz fit k=%d" % k,
        passed=fit == genus1_data(k).exponents(),
        details=(
            ("log x", rat_str(fit.coordinate_exponents[0])),
            ("log unit", rat_str(fit.component_exponents[0])),
            ("log shifted unit", rat_str(fit.component_exponents[1])),
            ("log jacobian", rat_str(fit.jacobian_exponent)),
        ),
    )


# ---------------------------------------------------------------------------
# instanton counts
# ---------------------------------------------------------------------------


def bundle_bps(k, dmax):
    """Integer counts underlying the bundle prepotential's instanton sum."""
    sring = scalar_series_ring(dmax)
    raw = prepotential_derivative(k, sring, 0)
    return {degs[0]: n for degs, n in polylog_invert(raw, 3).items()}


# ---------------------------------------------------------------------------
# chain and trivalent prepotentials
# ---------------------------------------------------------------------------


def chain_classes(n):
    """Effective classes of the length-n chain: consecutive index intervals."""
    if n < 1:
        raise ClosedFormError("chains need at least one curve")
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(tuple(1 if i <= m <= j else 0 for m in range(n)))
    return tuple(out)


def an_prepotential(n, sring, weight=3):
    """Sum of Li_weight over the chain classes."""
    if sring.nvars != n:
        raise ClosedFormError("the chain prepotential needs one variable per curve")
    total = sring.zero()
    for beta in chain_classes(n):
        total = total + polylog_series(sring, weight, beta)
    return total


def trivalent_classes(action):
    """Classes with signs for the three-curve star: the pair terms flip."""
    if action == "diagonal":
        pair = 1
    elif action == "antidiagonal":
        pair = -1
    else:
        raise ClosedFormError("trivalent prepotentials exist for the two sign actions")
    classes = [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)]
    classes += [((1, 1, 0), pair), ((1, 0, 1), pair), ((0, 1, 1), pair)]
    return tuple(classes)


def trivalent_prepotential(action, sring, weight=3):
    if sring.nvars != 3:
        raise ClosedFormError("the trivalent prepotential has three curve classes")
    total = sring.zero()
    for beta, sign in trivalent_classes(action):
        total = total + polylog_series(sring, weight, beta, sign)
    return total


# ---------------------------------------------------------------------------
# genus-1 identity for the two-curve chain
# ---------------------------------------------------------------------------


def a2_discriminant(sring):
    """Discriminant of the two-curve chain's mirror, a fixed polynomial.

    Supplied as external input (it comes from a compactified mirror
    computation that is out of scope here); everything done with it is
    verified exactly downstream.
    """
    if sring.nvars != 2:
        raise ClosedFormError("the chain discriminant lives in two variables")
    terms = {
        (0, 0): 1,
        (1, 0): -8,
        (0, 1): -8,
        (1, 1): 68,
        (2, 0): 16,
        (0, 2): 16,
        (1, 2): -144,
        (2, 1): -144,
        (2, 2): 270,
        (3, 2): 216,
        (2, 3): 216,
        (3, 3): -972,
        (4, 4): 729,
    }
    box = sring.box
    kept = {degs: c for degs, c in terms.items() if all(d <= b for d, b in zip(degs, box))}
    return sring.from_rational_terms(kept)


@dataclass(frozen=True)
class A2Genus1Report:
    """Outcome of the two-curve chain genus-1 comparison.

    passed states whether the identity holds with the exponents as given.
    The diagnostic fields carry the exact structure either way: the
    discriminant and the mirror-map jacobian are functionally dependent
    here (Delta * det(dt/dlog q)^4 == 1 on the mirror-map locus), so only
    one combination of the two exponents is observable; target_exponent is
    the measured coefficient e with

        A-side minus its log x part == e * log Delta(q(x)),

    and delta_exponent is the discriminant exponent that makes the identity
    exact at the given jacobian exponent.
    """

    given_delta_exponent: object
    given_jacobian_exponent: object
    passed: bool
    jacobian_relation: bool
    jacobian_ratio: object
    target_exponent: object
    delta_exponent: object


def a2_genus1_check(
    box=(3, 3),
    coordinate_exponents=(rat(1, 12), rat(1, 12)),
    delta_exponent=rat(-7, 24),
    jacobian_exponent=rat(1, 2),
):
    """Compare the chain's A-side genus-1 potential with the log ansatz.

    A-side: sum_i a_i t_i - (1/12) sum_beta log(1 - x^beta) over the three
    chain classes.  B-side: sum_i a_i log q_i + b log Delta + c log J with
    J = det(d log q / dt), composed with the mirror map.  The report also
    measures the exact exponent structure, which survives independently of
    the supplied (b, c) because of the Delta-jacobian dependence.
    """
    geom = geometry("a_n", 2)
    res = run_pipeline(geom, tuple(box))
    sring = scalar_series_ring(tuple(box), names=("q1", "q2"))

    def scalar(series):
        return sring.from_rational_terms(scalar_table(series))

    inverse = tuple(scalar(s) for s in res.mirror.inverse)
    corrections = tuple(scalar(s) for s in res.mirror.corrections)
    jac = scalar(res.mirror.jacobian())

    logdelta = a2_discriminant(sring).subs(inverse).log()
    logdet = jac.subs(inverse).log()
    relation = (logdelta + logdet * rat(4)).is_zero()

    # log J == jacobian_ratio * log Delta on the locus, J = det(dlogq/dt)
    logj = -logdet
    jacobian_ratio = _proportionality(logj, logdelta)

    # -(1/12) sum_beta log(1 - x^beta) = (1/12) sum_beta Li_1(x^beta)
    apow = an_prepotential(2, sring, weight=1) * rat(1, 12)
    gsum = sring.zero()
    for a_i, g in zip(coordinate_exponents, corrections):
        gsum = gsum + g.subs(inverse) * rat(a_i)
    target = apow + gsum

    target_exponent = _proportionality(target, logdelta)
    diff = target - logdelta * rat(delta_exponent) - logj * rat(jacobian_exponent)
    a_ok = all(rat(a_i) == rat(1, 12) for a_i in coordinate_exponents)
    passed = a_ok and diff.is_zero()

    delta_needed = None
    if target_exponent is not None and jacobian_ratio is not None:
        delta_needed = target_exponent - rat(jacobian_exponent) * jacobian_ratio

    return A2Genus1Report(
        given_delta_exponent=rat(delta_exponent),
        given_jacobian_exponent=rat(jacobian_exponent),
        passed=passed,
        jacobian_relation=relation,
        jacobian_ratio=jacobian_ratio,
        target_exponent=target_exponent,
        delta_exponent=delta_needed,
    )


def _proportionality(series, reference):
    """Exact r with series == r * reference, or None."""
    ref_items = [(k, v) for k, v in reference.rational_items() if v != 0]
    if not ref_items:
        return None
    key, pivot = ref_items[0]
    r = series.coefficient(key[0], key[1]).scalar_value() / pivot
    return r if (series - reference * r).is_zero() else None


# ---------------------------------------------------------------------------
# restricted double brackets against prepotential derivatives
# ---------------------------------------------------------------------------


def a2_bracket_check(box=(3, 3)):
    """Restricted double bracket of the two-curve chain vs prepotential.

    Setting p2 = lam2 = 0 isolates the first curve: the lam1^2 component
    must be dF/dt1 and the p1 lam1 component 2 dF/dt1 - dF/dt2, both at
    polylog weight two, F the chain prepotential.
    """
    res = run_pipeline(geometry("a_n", 2), tuple(box))
    rest = restrict_w(res.w, {"p2": 0, "lam2": 0})
    sring = rest.sring

    def li(beta, coeff=1):
        return polylog_series(sring, 2, beta, coeff)

    expect_a = li((1, 0)) + li((1, 1))
    expect_b = li((1, 0), 2) + li((1, 1)) - li((0, 1))
    got_a = rest.component((0, 0), (2,))
    got_b = rest.component((1, 0), (1,))
    extra = set(rest.components) - {((0, 0), (2,)), ((1, 0), (1,))}
    return ComparisonReport.from_checks(
        "chain double bracket through %s" % ("x".join(str(b) for b in box),),
        (
            ("lam1^2 component", got_a == expect_a),
            ("p1 lam1 component", got_b == expect_b),
            ("no other components", not extra),
        ),
    )


def trivalent_bracket_check(action, box=(2, 2, 2)):
    """Restricted double bracket of the three-curve star vs prepotential.

    Setting lam1 = p2 = p3 = 0 isolates the first curve.  The surviving
    components are derivative combinations of the prepotential whose pair
    classes carry the action's sign; the class x2 x3 cannot contribute to
    the p1 lam component (its restricted content carries only lam1), so it
    is excluded there.  The overall signs are the computed ones.
    """
    res = run_pipeline(geometry("trivalent", None, action), tuple(box))
    rest = restrict_w(res.w, {"lam1": 0, "p2": 0, "p3": 0})
    sring = rest.sring
    classes = trivalent_classes(action)

    def combo(coeffs, exclude=()):
        total = sring.zero()
        for beta, sign in classes:
            if beta in exclude:
                continue
            pair = sum(c * b for c, b in zip(coeffs, beta))
            if pair:
                total = total + polylog_series(sring, 2, beta, rat(sign * pair))
        return total

    if action == "diagonal":
        expect_a = combo((1, 0, 0))
        expect_b = -combo((2, -1, -1), exclude=((0, 1, 1),))
    elif action == "antidiagonal":
        expect_a = -combo((1, 0, 0))
        expect_b = combo((0, -1, 1))
    else:
        raise ClosedFormError("bracket comparisons exist for the two sign actions")
    got_a = rest.component((0, 0, 0), (2,))
    got_b = rest.component((1, 0, 0), (1,))
    return ComparisonReport.from_checks(
        "trivalent %s double bracket through %s" % (action, "x".join(str(b) for b in box)),
        (
            ("lam^2 component", got_a == expect_a),
            ("p1 lam component", got_b == expect_b),
        ),
    )


# ---------------------------------------------------------------------------
# pipeline cross-checks for the bundle family
# ---------------------------------------------------------------------------


def bundle_mirror_check(k, degree=6):
    """Pipeline mirror map of the split presentation against the closed form."""
    data = genus0_data(k)
    res = run_pipeline(geometry("x_k_factored", k, "antidiagonal"), (degree,))
    sring = scalar_series_ring(degree)
    got = sring.from_rational_terms(scalar_table(res.mirror.corrections[0]))
    want = data.correction(sring)
    diff = got - want
    return ComparisonReport(
        label="bundle mirror map k=%d through q^%d" % (k, degree),
        passed=diff.is_zero(),
        details=(
            ("computed", _series_text(got)),
            ("closed form", _series_text(want)),
        ),
    )


def _series_text(series, limit=8):
    bits = []
    for (degs, logs), value in series.rational_items():
        if value == 0:
            continue
        mon = "*".join(
            "%s^%d" % (name, d)
            for name, d in zip(series.sring.variables, degs)
            if d
        )
        bits.append("%s%s" % (rat_str(value), ("*" + mon) if mon else ""))
        if len(bits) >= limit:
            bits.append("...")
            break
    return " + ".join(bits) if bits else "0"

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqmirror import series as series_module
from eqmirror.exact_core import CoeffRing, RingElem, algebra_from_relations, rat
from eqmirror.series import (
    QSeries,
    SeriesError,
    SeriesRing,
    polylog_series,
    scalar_coeff_ring,
    series_reversion,
)

from oracles import (
    assert_same_series,
    fixed_point_reversion,
    lagrange_inverse,
    polylog_coeffs,
    ser_exp,
    ser_log,
    ser_mul,
    ser_trim,
    term_by_term_subs,
)


def sring1(order=8):
    return SeriesRing(scalar_coeff_ring(), ("q",), (order,))


def sring2(box=(4, 4)):
    return SeriesRing(scalar_coeff_ring(), ("q1", "q2"), box)


def coeffs(series, order):
    """Dense Fraction list of a one-variable log-free series."""
    out = [Fraction(0)] * (order + 1)
    for (degs, logs), v in series.rational_items():
        assert not any(logs)
        out[degs[0]] = Fraction(v.numerator, v.denominator)
    return out


def test_monomials_and_coefficients():
    sr = sring1()
    q = sr.variable(0)
    f = sr.one() + q * rat(3) + sr.monomial((2,), coeff=rat(-1, 2))
    assert f.coefficient((1,)).scalar_value() == rat(3)
    assert f.coefficient((2,)).scalar_value() == rat(-1, 2)
    assert f.coefficient((3,)).is_zero()
    assert f.constant_term() == sr.coeff.one()
    assert not f.has_logs()
    assert sr.log_variable(0).has_logs()


def test_product_identity():
    sr = sring1()
    q = sr.variable(0)
    lhs = (sr.one() + q) * (sr.one() - q)
    assert lhs == sr.one() - q * q


def test_box_truncation_is_rectangular():
    sr = sring2((2, 3))
    f = (sr.one() + sr.variable(0) + sr.variable(1)) ** 6
    for (degs, logs), v in f.rational_items():
        assert degs[0] <= 2 and degs[1] <= 3


def test_exp_log_round_trip():
    sr = sring1()
    for terms in (
        {(1,): rat(1)},
        {(1,): rat(-2), (3,): rat(5, 7)},
        {(2,): rat(1, 3), (5,): rat(-11, 4)},
    ):
        f = sr.from_rational_terms(terms)
        assert f.exp().log() == f
        assert (sr.one() + f).log().exp() == sr.one() + f


def test_exp_against_oracle():
    sr = sring1(7)
    f = sr.from_rational_terms({(1,): rat(2), (2,): rat(-1, 3)})
    got = coeffs(f.exp(), 7)
    want = ser_exp([0, Fraction(2), Fraction(-1, 3)], 7)
    assert got == want


def test_log_against_oracle():
    sr = sring1(7)
    f = sr.from_rational_terms({(0,): rat(1), (1,): rat(1), (2,): rat(4)})
    got = coeffs(f.log(), 7)
    want = ser_log([1, 1, 4], 7)
    assert got == want


def test_invert():
    sr = sring1(9)
    f = sr.from_rational_terms({(0,): rat(2), (1,): rat(1)})
    assert f * f.invert() == sr.one()
    with pytest.raises(SeriesError):
        sr.variable(0).invert()


def test_invert_keeps_the_truncated_flag():
    ring = CoeffRing(algebra_from_relations(("p",), ({(2,): 1},)), (), (), -2, 2)
    sr = SeriesRing(ring, ("q",), (3,))
    lead = ring.scalar(2) + ring.p("p") * ring.hbar(1) + ring.hbar(3)
    f = QSeries(sr, {((0,), (0,)): lead, ((1,), (0,)): ring.one()})
    assert f.truncated()
    assert f.invert().truncated()
    assert f * f.invert() == sr.one()


def test_exp_requires_no_constant_term():
    sr = sring1()
    with pytest.raises(SeriesError):
        sr.one().exp()
    with pytest.raises(SeriesError):
        (sr.variable(0) * rat(2) + sr.one() * rat(3)).log()


def test_theta_on_logs():
    sr = sring1()
    q = sr.variable(0)
    lq = sr.log_variable(0)
    assert lq.theta(0) == sr.one()
    # theta(q log q) = q log q + q
    f = q * lq
    assert f.theta(0) == f + q
    # theta(log^2 q) = 2 log q
    assert (lq * lq).theta(0) == lq * rat(2)


def test_theta_leibniz():
    sr = sring2()
    f = sr.one() + sr.variable(0) + sr.monomial((1, 2), coeff=rat(3))
    g = sr.one() + sr.variable(1) * rat(-2) + sr.monomial((2, 1), coeff=rat(1, 5))
    for i in (0, 1):
        assert (f * g).theta(i) == f.theta(i) * g + f * g.theta(i)


def test_theta_weighted_conjugation():
    # on prefactor series theta picks up p + d hbar on the q^d coefficient
    alg = algebra_from_relations(("p",), ({(2,): 1},))
    ring = CoeffRing(alg, (), (), hbar_min=-2, hbar_max=2)
    sr = SeriesRing(ring, ("q",), (3,))
    f = QSeries(sr, {((0,), (0,)): ring.one(), ((2,), (0,)): ring.p("p")}, prefactor=True)
    tf = f.theta_weighted(0)
    assert tf.prefactor
    assert tf.coefficient((0,)) == ring.p("p")
    assert tf.coefficient((2,)) == ring.p("p") * (ring.p("p") + ring.hbar(1) * rat(2))


def test_plain_only_operations_reject_prefactor_series():
    sr = sring1()
    f = QSeries(sr, {((1,), (0,)): sr.coeff.one()}, prefactor=True)
    for op in ("exp", "log", "invert"):
        with pytest.raises(SeriesError):
            getattr(f, op)()
    with pytest.raises(SeriesError):
        f.subs((sr.variable(0),))


def test_mixed_ring_arithmetic_rejected():
    a = sring1()
    b = sring1()
    with pytest.raises(SeriesError):
        a.variable(0) + b.variable(0)


def test_subs_composition_against_oracle():
    sr = sring1(6)
    outer = sr.from_rational_terms({(1,): rat(1), (2,): rat(1), (3,): rat(1)})
    image = sr.from_rational_terms({(1,): rat(1), (2,): rat(-3)})
    got = coeffs(outer.subs((image,)), 6)
    img = ser_trim([0, 1, -3], 6)
    want = [Fraction(0)] * 7
    pw = ser_trim([1], 6)
    for n in (1, 2, 3):
        pw = ser_mul(pw, img, 6)
        want = [w + p for w, p in zip(want, pw)]
    assert got == want


def test_subs_handles_log_slots():
    # log q -> log x + log(1 + x) for the image x(1 + x)
    sr = sring1(5)
    lq = sr.log_variable(0)
    image = sr.variable(0) + sr.monomial((2,))
    got = lq.subs((image,))
    want = sr.log_variable(0) + (sr.one() + sr.variable(0)).log()
    assert got == want


def test_subs_requires_unit_multiple_of_variable():
    sr = sring1()
    with pytest.raises(SeriesError):
        sr.one().subs((sr.one() + sr.variable(0),))
    with pytest.raises(SeriesError):
        sr.one().subs((sr.variable(0) * rat(2),))


def test_subs_requires_rational_images():
    # with hbar images the table product x1 x2 (1 + h q2)(1 + h q1) would
    # clip h^2 before the h^-1 coefficient brings it back into the window
    ring = CoeffRing(algebra_from_relations(("p",), ({(2,): 1},)), (), (), -1, 1)
    sr = SeriesRing(ring, ("q1", "q2"), (2, 2))
    images = (
        QSeries(sr, {((1, 0), (0, 0)): ring.one(), ((1, 1), (0, 0)): ring.hbar(1)}),
        QSeries(sr, {((0, 1), (0, 0)): ring.one(), ((1, 1), (0, 0)): ring.hbar(1)}),
    )
    f = QSeries(sr, {((1, 1), (0, 0)): ring.hbar(-1)})
    with pytest.raises(SeriesError, match="images must have rational coefficients"):
        f.subs(images)


def test_reversion_matches_lagrange_inversion():
    # t = log q + c log(1 + eps q) inverts with binomial coefficients
    for c, eps in ((3, 1), (8, -1), (15, 1), (1, -1)):
        sr = sring1(8)
        unit = sr.one() + sr.variable(0) * rat(eps)
        (qx,) = series_reversion((unit.log() * rat(c),), sr)
        assert coeffs(qx, 8) == lagrange_inverse(c, eps, 8)


def test_reversion_round_trip_two_variables():
    sr = sring2((3, 3))
    g1 = sr.variable(1) + sr.monomial((1, 1), coeff=rat(2))
    g2 = sr.variable(0) * rat(-1)
    inv = series_reversion((g1, g2), sr)
    for i, g in enumerate((g1, g2)):
        assert inv[i] * g.subs(inv).exp() == sr.variable(i)


def test_reversion_rejects_constant_terms():
    sr = sring1()
    with pytest.raises(SeriesError):
        series_reversion((sr.one(),), sr)


def test_reversion_rejects_non_rational_coefficients():
    ring = CoeffRing(algebra_from_relations(("p",), ({(2,): 1},)), ("lam",), (0,))
    sr = SeriesRing(ring, ("q",), (3,))
    for coeff in (ring.lam("lam"), ring.p("p"), ring.one() + ring.p("p")):
        g = QSeries(sr, {((1,), (0,)): ring.one(), ((2,), (0,)): coeff})
        with pytest.raises(SeriesError, match="rational coefficients, got .* at degree \\(2,\\)"):
            series_reversion((g,), sr)


def test_reversion_rejects_zero_degree_bounds():
    sr = sring2((3, 0))
    with pytest.raises(SeriesError, match="every degree bound >= 1"):
        series_reversion((sr.variable(0), sr.variable(0)), sr)


def test_reversion_flags_every_coefficient_of_a_flagged_correction():
    sr = sring1(4)
    ring = sr.coeff
    clipped = RingElem(ring, {(0, (), 0): rat(3)}, truncated=True)
    g = QSeries(sr, {((1,), (0,)): ring.one(), ((2,), (0,)): clipped})
    (qx,) = series_reversion((g,), sr)
    assert len(qx.data) == 4
    assert all(c.truncated for c in qx.data.values())
    assert qx == series_reversion((sr.from_rational_terms({(1,): 1, (2,): 3}),), sr)[0]


def _passes(corrections, box, passes, cut_shift=0):
    """The reversion loop over ``{degs: rat}`` corrections with a chosen
    number of passes and pass k cut at total degree k + 1 + cut_shift."""
    current = [{e: rat(1)} for e in series_module._units(len(box))]
    for k in range(1, passes + 1):
        cut = k + 1 + cut_shift
        cut_gs = [{d: -c for d, c in g.items() if sum(d) <= cut} for g in corrections]
        current = series_module._coordinates(
            series_module._substitute(cut_gs, current, box, cut), box, cut
        )
    return current


@pytest.mark.parametrize("box", [(6,), (3, 3), (2, 1, 2)])
def test_round_trip_catches_a_short_pass_count_or_a_low_cut(box):
    nv = len(box)
    corrections = [
        {tuple(1 if j in (i, (i + 1) % nv) else 0 for j in range(nv)): rat(2, i + 1),
         tuple(1 if j == i else 0 for j in range(nv)): rat(-1)}
        for i in range(nv)
    ]
    full = sum(box) - 1
    holds = series_module._round_trip_holds
    assert holds(_passes(corrections, box, full), corrections, box)
    assert not holds(_passes(corrections, box, full - 1), corrections, box)
    assert not holds(_passes(corrections, box, full, cut_shift=-1), corrections, box)


@st.composite
def rational_corrections(draw):
    """A series ring of 1-3 variables with box sum <= 8 and one rational
    correction series per variable."""
    nv = draw(st.integers(1, 3))
    box = []
    for i in range(nv):
        box.append(draw(st.integers(1, 8 - sum(box) - (nv - 1 - i))))
    box = tuple(box)
    sr = SeriesRing(scalar_coeff_ring(), ("q1", "q2", "q3")[:nv], box)
    degrees = st.tuples(*(st.integers(0, b) for b in box)).filter(any)
    coefficients = st.builds(rat, st.integers(-4, 4), st.integers(1, 5))
    gs = tuple(
        sr.from_rational_terms(draw(st.dictionaries(degrees, coefficients, max_size=4)))
        for _ in range(nv)
    )
    return sr, gs


@settings(max_examples=100, deadline=None)
@given(rational_corrections())
def test_reversion_matches_the_fixed_point_oracle(case):
    sr, gs = case
    got = series_reversion(gs, sr)
    for new, old in zip(got, fixed_point_reversion(gs, sr)):
        assert_same_series(new, old)


def test_subs_matches_the_term_by_term_oracle_with_logs_and_flags():
    alg = algebra_from_relations(("p1", "p2"), ({(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}))
    ring = CoeffRing(alg, (), (), hbar_min=-2, hbar_max=1)
    sr = SeriesRing(ring, ("q1", "q2"), (3, 2))
    g1 = sr.from_rational_terms({(1, 0): rat(2), (1, 1): rat(-1, 3), (0, 2): rat(5)})
    g2 = sr.from_rational_terms({(0, 1): rat(-1), (2, 1): rat(7, 2)})
    inverse = series_reversion((g1, g2), sr)
    clipped = RingElem(ring, {(1, (), -1): rat(4)}, truncated=True)
    f = QSeries(
        sr,
        {
            ((0, 0), (0, 0)): ring.one(),
            ((1, 0), (1, 0)): ring.p("p1") * ring.hbar(-1),
            ((0, 1), (2, 1)): ring.p("p2") + ring.hbar(1) * rat(3),
            ((2, 1), (0, 0)): clipped,
            ((1, 2), (0, 1)): ring.hbar(-2) * rat(-1, 2),
        },
    )
    assert f.has_logs() and f.truncated()
    assert_same_series(f.subs(inverse), term_by_term_subs(f, inverse))
    # images that are not the inverse of a mirror map
    images = (sr.variable(0) + sr.monomial((1, 1), coeff=rat(3)), sr.variable(1) * g1.exp())
    assert_same_series(f.subs(images), term_by_term_subs(f, images))


def test_subs_flags_every_coefficient_for_one_flagged_image_coefficient():
    sr = sring2((3, 2))
    ring = sr.coeff
    clipped = RingElem(ring, {(0, (), 0): rat(3)}, truncated=True)
    plain = (sr.variable(0) + sr.monomial((2, 0), coeff=rat(3)), sr.variable(1))
    images = (QSeries(sr, {((1, 0), (0, 0)): ring.one(), ((2, 0), (0, 0)): clipped}), plain[1])
    f = sr.from_rational_terms({(0, 0): 1, (0, 1): rat(-2), (1, 1): rat(1, 2), (2, 0): 5})
    got = f.subs(images)
    assert got == f.subs(plain)
    assert len(got.data) == 6
    assert all(c.truncated for c in got.data.values())
    assert not any(c.truncated for c in f.subs(plain).data.values())


def test_polylog_series():
    sr = sring1(6)
    li2 = polylog_series(sr, 2, (1,))
    assert coeffs(li2, 6) == polylog_coeffs(2, 6)
    li3 = polylog_series(sr, 3, (1,), coeff=-2)
    assert li3.coefficient((4,)).scalar_value() == rat(-2, 64)
    sr2 = sring2((3, 3))
    mixed = polylog_series(sr2, 2, (1, 1))
    assert mixed.coefficient((2, 2)).scalar_value() == rat(1, 4)
    assert mixed.coefficient((2, 1)).is_zero()
    with pytest.raises(SeriesError):
        polylog_series(sr2, 2, (0, 0))


def test_hbar_slices():
    ring = scalar_coeff_ring(hbar_min=-2, hbar_max=1)
    sr = SeriesRing(ring, ("q",), (3,))
    f = QSeries(
        sr,
        {
            ((1,), (0,)): ring.hbar(-1) + ring.one(),
            ((2,), (0,)): ring.hbar(-2) * rat(5),
        },
    )
    s = f.hbar_slice(-1)
    assert s.coefficient((1,)) == ring.one()
    assert s.coefficient((2,)).is_zero()
    assert f.hbar_range() == (-2, 0)

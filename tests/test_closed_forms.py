from fractions import Fraction

import pytest

from eqmirror.closed_forms import (
    ClosedFormError,
    Genus1Fit,
    GENUS1_REFERENCE,
    a2_discriminant,
    a2_genus1_check,
    amodel_prepotential,
    bundle_bps,
    bundle_genus1_fit,
    bundle_mirror_check,
    epsilon,
    ftt_identity_check,
    genus0_data,
    genus1_ansatz_fit,
    genus1_data,
    genus1_fit_check,
    genus1_reference_check,
    pf_check,
    pf_operator,
    pf_residuals,
    period_ft,
    prepotential_coefficient,
    prepotential_derivative,
    scalar_series_ring,
    tree_bracket_check,
    tree_classes,
    tree_prepotential,
    triple_intersection,
    yukawa_check,
)
from eqmirror.exact_core import rat, rat_str
from eqmirror.givental import GeometrySpec, a_n, trivalent
from eqmirror.pipeline import polylog_invert

from oracles import (
    a_n_fields,
    assert_same_series,
    chain_classes,
    instanton_coefficient,
    lagrange_inverse,
    multicover_invert,
    power_loop_period_ft,
    ser_div,
    trivalent_classes,
)


def test_signs_and_triple_intersections():
    assert [epsilon(k) for k in range(1, 6)] == [1, -1, 1, -1, 1]
    for k in range(1, 11):
        assert triple_intersection(k) * k * (k + 2) == rat(-1)
    with pytest.raises(ClosedFormError):
        triple_intersection(0)
    with pytest.raises(ClosedFormError):
        genus0_data(-1)


def test_prepotential_coefficients():
    assert prepotential_coefficient(1, 1) == rat(1)
    assert prepotential_coefficient(1, 2) == rat(-7, 8)
    assert prepotential_coefficient(2, 1) == rat(-1)
    for k in range(1, 5):
        for d in range(1, 7):
            got = prepotential_coefficient(k, d)
            want = instanton_coefficient(k, d)
            assert Fraction(got.numerator, got.denominator) == want
    with pytest.raises(ClosedFormError):
        prepotential_coefficient(1, 0)


@pytest.mark.parametrize("k", range(1, 6))
def test_qdt_inverse_matches_long_division(k):
    # (1 + eps q) / (1 + eps (k+1)^2 q), divided out over plain fractions
    data = genus0_data(k)
    sr = scalar_series_ring(8)
    eps = data.epsilon
    want = ser_div([1, eps], [1, eps * (k + 1) ** 2], 8)
    got = [Fraction(0)] * 9
    for (degs, logs), v in data.qdt_inverse(sr).rational_items():
        assert logs == (0,)
        got[degs[0]] = Fraction(v.numerator, v.denominator)
    assert got == want


@pytest.mark.parametrize("k", range(1, 6))
def test_qdt_matches_the_correction(k):
    # theta t = 1 + theta g is the reciprocal of qdt_inverse
    data = genus0_data(k)
    sr = scalar_series_ring(6)
    assert (sr.one() + data.correction(sr).theta(0)) * data.qdt_inverse(sr) == sr.one()


@pytest.mark.parametrize("k", (1, 2, 3))
def test_mirror_inverse_against_lagrange_inversion(k):
    sr = scalar_series_ring(8)
    data = genus0_data(k)
    inv = data.mirror_inverse(sr)
    want = lagrange_inverse(k * (k + 2), data.epsilon, 8)
    got = [Fraction(0)] * 9
    for (degs, logs), v in inv.rational_items():
        got[degs[0]] = Fraction(v.numerator, v.denominator)
    assert got == want
    # forward map composed with the inverse is the identity
    assert data.forward_map(sr).subs((inv,)) == sr.variable(0)


def test_prepotential_derivatives_differentiate():
    sr = scalar_series_ring(6)
    f = amodel_prepotential(2, sr)
    f3 = f.theta(0).theta(0).theta(0)
    want = sr.from_rational_terms({(0,): triple_intersection(2)}) + prepotential_derivative(
        2, sr, 3
    )
    assert f3 == want


@pytest.mark.parametrize("k", (1, 3))
def test_genus0_identities(k):
    assert yukawa_check(k).passed
    assert ftt_identity_check(k).passed
    assert pf_check(k).passed


@pytest.mark.parametrize("degree", (8, 24))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_period_ft_matches_the_power_loop_oracle(k, degree):
    sring = scalar_series_ring(degree)
    assert_same_series(period_ft(k, sring), power_loop_period_ft(k, sring))


def test_pf_operator_shape():
    sr = scalar_series_ring(4)
    op = pf_operator(1, sr)
    # theta^2 (qdt)^-1 theta: every term differentiates at least once
    assert all(texps[0] >= 1 for (degs, texps) in op.terms)
    with pytest.raises(ClosedFormError):
        pf_operator(1, scalar_series_ring((2, 2), names=("a", "b")))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pf_residuals_match_the_composed_operator(k):
    # one factor at a time gives the residuals of the composed operator;
    # the closed forms reject k = 0 on both routes
    sr = scalar_series_ring(6)
    for route in (pf_residuals, pf_operator):
        with pytest.raises(ClosedFormError):
            route(0, sr)
    data = genus0_data(k)
    solutions = (sr.one(), data.t_series(sr), period_ft(k, sr))
    residuals = pf_residuals(k, sr)
    assert [name for name, _ in residuals] == ["1", "t", "F_t"]
    for sol, (_, residual) in zip(solutions, residuals):
        assert_same_series(residual, pf_operator(k, sr).apply(sol))


def test_genus1_reference_expansions():
    for k in (1, 2):
        rep = genus1_reference_check(k)
        assert rep.passed, rep
    with pytest.raises(ClosedFormError):
        genus1_reference_check(3)
    assert GENUS1_REFERENCE[1][0] == rat(1, 12)
    assert GENUS1_REFERENCE[2][0] == rat(-1, 12)


def test_genus1_t_series_small_values():
    sr = scalar_series_ring(3)
    series = genus1_data(1).t_series(sr)
    assert series.coefficient((1,)).scalar_value() == rat(1, 12)
    assert series.coefficient((2,)).scalar_value() == rat(-1, 24)
    assert series.coefficient((3,)).scalar_value() == rat(-29, 36)


@pytest.mark.parametrize(
    "k,unit_exp",
    [(1, rat(-1, 4)), (2, rat(-1, 24)), (3, rat(1, 4)), (4, rat(5, 8))],
)
def test_bundle_genus1_fit(k, unit_exp):
    fit = bundle_genus1_fit(k)
    assert fit == Genus1Fit(
        coordinate_exponents=(rat(0),),
        component_exponents=(unit_exp, rat(11, 24)),
        jacobian_exponent=rat(1, 2),
    )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_genus1_fit_check_reads_the_closed_form_exponents(k):
    rep = genus1_fit_check(k, 4)
    assert rep.passed, rep
    assert rep.label == "genus-1 ansatz fit k=%d" % k
    assert dict(rep.details) == {
        "log x": "0",
        "log unit": rat_str(rat((k + 1) ** 2, 24) - rat(5, 12)),
        "log shifted unit": "11/24",
        "log jacobian": "1/2",
    }


def test_fit_with_free_jacobian_exponent_is_singular():
    # log J lies in the span of the component logs, so freeing c breaks rank
    data = genus0_data(1)
    sr = scalar_series_ring(6)
    from eqmirror.closed_forms import _unit_series

    comps = (_unit_series(sr, data.epsilon), _unit_series(sr, rat(data.epsilon) * 4))
    target = genus1_data(1).t_series(sr)
    inverse = (data.mirror_inverse(sr),)
    with pytest.raises(ClosedFormError, match="singular"):
        genus1_ansatz_fit(
            comps, data.qdt_inverse(sr), target, inverse, jacobian_exponent=None
        )


def test_fit_reports_unfittable_targets():
    sr = scalar_series_ring(5)
    unit = sr.one() + sr.variable(0)
    target = unit.log() * rat(1, 2) + sr.monomial((3,))
    with pytest.raises(ClosedFormError, match="residual"):
        genus1_ansatz_fit((unit,), sr.one(), target, (sr.variable(0),))


def test_fit_rejects_malformed_targets():
    sr = scalar_series_ring(4)
    unit = sr.one() + sr.variable(0)
    bad = sr.one()  # constant offset
    with pytest.raises(ClosedFormError, match="constant offset"):
        genus1_ansatz_fit((unit,), sr.one(), bad, (sr.variable(0),))
    nonlinear = sr.log_variable(0) * sr.log_variable(0)
    with pytest.raises(ClosedFormError, match="nonlinear log"):
        genus1_ansatz_fit((unit,), sr.one(), nonlinear, (sr.variable(0),))


def test_fit_rejects_inputs_outside_the_target_ring():
    sr = scalar_series_ring(4)
    unit = sr.one() + sr.variable(0)
    target = unit.log() * rat(1, 2)
    other = scalar_series_ring(5)
    with pytest.raises(ClosedFormError, match="fit inputs must be series"):
        genus1_ansatz_fit((other.one(),), sr.one(), target, (sr.variable(0),))
    with pytest.raises(ClosedFormError, match="fit inputs must be series"):
        genus1_ansatz_fit((unit,), other.one(), target, (sr.variable(0),))
    with pytest.raises(ClosedFormError, match="fit inputs must be series"):
        genus1_ansatz_fit((rat(1),), sr.one(), target, (sr.variable(0),))


def test_bps_counts():
    assert bundle_bps(1, 4) == {1: rat(1), 2: rat(-1), 3: rat(2), 4: rat(-7)}
    assert bundle_bps(2, 3) == {1: rat(-1), 2: rat(-2), 3: rat(-12)}


def one_variable_series(values, dmax):
    """The scalar series sum_d values[d] q^d through q^dmax."""
    return scalar_series_ring(dmax).from_rational_terms({(d,): v for d, v in values.items()})


@pytest.mark.parametrize("k", (1, 2, 3))
def test_bps_against_mobius_inversion(k):
    values = {d: prepotential_coefficient(k, d) for d in range(1, 7)}
    got = polylog_invert(one_variable_series(values, 6), 3)
    want = multicover_invert(
        {d: Fraction(v.numerator, v.denominator) for d, v in values.items()}, 3
    )
    assert {d: Fraction(v.numerator, v.denominator) for (d,), v in got.items()} == want


def test_bps_invert_other_weights():
    # at weight 2, N_1 Li_2(q) reaches every degree: q^d carries N_1 / d^2
    n = {1: rat(2), 2: rat(-1)}
    values = {
        1: n[1],
        2: n[2] + n[1] / rat(4),
        3: n[1] / rat(9),
        4: n[2] / rat(4) + n[1] / rat(16),
    }
    assert polylog_invert(one_variable_series(values, 4), 2) == {(1,): rat(2), (2,): rat(-1)}


def test_chain_classes():
    assert tree_classes(a_n(2)) == (((1, 0), 1), ((1, 1), 1), ((0, 1), 1))
    assert len(tree_classes(a_n(4))) == 10
    assert all(sum(c) >= 1 for c, _ in tree_classes(a_n(3)))
    # a chain charge matrix under other weights is not the preset
    other = dict(a_n_fields(2), weights=(None, ("lam1", 1), ("lam2", -1), None))
    with pytest.raises(ClosedFormError):
        tree_classes(GeometrySpec(**other))
    for n in range(1, 7):
        assert tree_classes(a_n(n)) == tuple((beta, 1) for beta in chain_classes(n))


def test_chain_prepotential_coefficients():
    sr = scalar_series_ring((2, 2), names=("x1", "x2"))
    f = tree_prepotential(a_n(2), sr)
    assert f.coefficient((1, 1)).scalar_value() == rat(1)
    assert f.coefficient((2, 2)).scalar_value() == rat(1, 8)
    assert f.coefficient((2, 1)).is_zero()
    with pytest.raises(ClosedFormError):
        tree_prepotential(a_n(3), sr)


def test_trivalent_classes_and_prepotential():
    diag = dict(tree_classes(trivalent("diagonal")))
    anti = dict(tree_classes(trivalent("antidiagonal")))
    assert diag == dict(trivalent_classes("diagonal"))
    assert anti == dict(trivalent_classes("antidiagonal"))
    assert diag[(1, 1, 0)] == 1 and anti[(1, 1, 0)] == -1
    assert diag[(1, 1, 1)] == 1 and anti[(1, 1, 1)] == 1
    with pytest.raises(ClosedFormError):
        tree_classes(trivalent("generic"))
    sr = scalar_series_ring((2, 2, 2), names=("x1", "x2", "x3"))
    f = tree_prepotential(trivalent("antidiagonal"), sr)
    assert f.coefficient((1, 1, 0)).scalar_value() == rat(-1)
    assert f.coefficient((1, 1, 1)).scalar_value() == rat(1)
    assert f.coefficient((2, 2, 2)).scalar_value() == rat(1, 8)


def test_discriminant_box_clipping():
    full = a2_discriminant(scalar_series_ring((4, 4), names=("q1", "q2")))
    assert full.coefficient((1, 1)).scalar_value() == rat(68)
    assert full.coefficient((4, 4)).scalar_value() == rat(729)
    small = a2_discriminant(scalar_series_ring((2, 2), names=("q1", "q2")))
    assert small.coefficient((3, 2)).is_zero()
    with pytest.raises(ClosedFormError):
        a2_discriminant(scalar_series_ring(4))


@pytest.mark.parametrize("box", ((3, 3), (2, 2), (2, 4)))
def test_chain_bracket_matches_prepotential(box):
    rep = tree_bracket_check(a_n(2), box)
    assert rep.passed, rep


@pytest.mark.parametrize("action", ("diagonal", "antidiagonal"))
def test_trivalent_bracket_matches_prepotential(action):
    rep = tree_bracket_check(trivalent(action), (2, 2, 2))
    assert rep.passed, rep


def test_chain_genus1_structure():
    rep = a2_genus1_check()
    # the displayed exponent pair (-7/24, 1/2) does not close the identity;
    # the measured structure is pinned exactly either way
    assert not rep.passed
    assert rep.jacobian_relation
    assert rep.jacobian_ratio == rat(1, 4)
    assert rep.target_exponent == rat(-1, 48)
    assert rep.delta_exponent == rat(-7, 48)


def test_chain_genus1_closes_at_the_measured_exponent():
    rep = a2_genus1_check(delta_exponent=rat(-7, 48))
    assert rep.passed
    assert rep.delta_exponent == rat(-7, 48)


def test_bundle_mirror_check_agrees_with_pipeline():
    rep = bundle_mirror_check(1)
    assert rep.passed, rep

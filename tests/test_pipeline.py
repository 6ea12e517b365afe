import pytest

from eqmirror.exact_core import rat
from eqmirror.givental import GeometrySpec, default_series_ring, geometry, ifunction
from eqmirror import pipeline
from eqmirror.pipeline import (
    BirkhoffError,
    ComparisonReport,
    GWTable,
    PipelineError,
    birkhoff,
    extract_mirror_maps,
    factored_consistency_check,
    fibration_correspondence_check,
    gw_table,
    normalize_j,
    polylog_invert,
    restrict_w,
    run_pipeline,
)
from eqmirror.series import QSeries, polylog_series


def easyj():
    # O(1) + O(-1)^3 with weights (lam, -lam, -lam, -lam)
    return GeometrySpec(
        name="easyj",
        mori=((1, 1, 1, -1, -1, -1),),
        weights=(None, None, ("lam", 1), ("lam", -1), ("lam", -1), ("lam", -1)),
        generators=("p",),
        relations=({(2,): 1},),
        lambda_names=("lam",),
        infinity_weights=("lam",),
    )


@pytest.mark.parametrize(
    "geom,box",
    [
        (geometry("x_k", -1, "generic"), (3,)),
        (geometry("a_n", 2), (2, 2)),
        (geometry("y_k", 0), (3, 2)),
    ],
    ids=["conifold", "chain", "projective"],
)
def test_factorization_is_trivial_without_infinity_weights(geom, box):
    res = run_pipeline(geom, box)
    fact = res.factorization
    one = res.sring.monomial((0,) * res.sring.nvars)
    assert (fact.c[0] - one).is_zero()
    assert all(c.is_zero() for c in fact.c[1:])
    assert (fact.j - res.i_series).is_zero()


def test_factorization_removes_positive_hbar_levels():
    res = run_pipeline(geometry("x_k_factored", 2, "antidiagonal"), (3,))
    j = res.factorization.j
    for (degs, logs), elem in j.data.items():
        if not any(degs):
            continue
        assert all(h < 0 for (_, _, h) in elem.terms)
    assert not res.factorization.c[1].is_zero()


def test_factorization_input_guards():
    g = geometry("x_k", -1, "generic")
    sr = default_series_ring(g, (2,))
    with pytest.raises(PipelineError):
        birkhoff(sr.one())  # not a prefactor series
    bad = QSeries(sr, {((0,), (0,)): sr.coeff.scalar(2)}, prefactor=True)
    with pytest.raises(PipelineError):
        birkhoff(bad)


def test_shallow_window_is_refused():
    with pytest.raises(BirkhoffError, match="retention windows too shallow"):
        birkhoff(i_series_on(geometry("x_k", 1, "antidiagonal"), (4,), lambda_depth=3))


def lam_top(i_series):
    return max(lexps[0] for c in i_series.data.values() for (_, lexps, _) in c.terms)


def i_series_on(geom, box, **windows):
    return ifunction(geom, default_series_ring(geom, box, **windows))


def test_birkhoff_weight_window_thresholds():
    # x_k(1)@(2,) reaches lam^4, so the documented rule is hbar_max >= 5, a
    # lam floor <= -5 (lambda_depth 5) and hbar_min <= -8
    g = geometry("x_k", 1, "antidiagonal")
    edge = {"lambda_depth": 5, "hbar_min": -8, "hbar_max": 5}
    for windows in (edge, {"lambda_depth": 6, "hbar_min": -9, "hbar_max": 6}):
        i_series = i_series_on(g, (2,), **windows)
        assert lam_top(i_series) == 4
        birkhoff(i_series)
    message = "needs hbar_max >= 5, a lam floor <= -5, and hbar_min <= -8"
    for name, value in (("hbar_max", 4), ("lambda_depth", 4), ("hbar_min", -7)):
        i_series = i_series_on(g, (2,), **dict(edge, **{name: value}))
        assert lam_top(i_series) == 4
        with pytest.raises(BirkhoffError, match=message):
            birkhoff(i_series)


def test_birkhoff_hbar_floor_threshold():
    # the post-hoc floor: need = max(2, 2 + deg_hbar c_0, 3 + deg_hbar c_i)
    g = geometry("a_n", 2)
    c0, *ci = birkhoff(i_series_on(g, (2, 2))).c
    need = max(
        [2]
        + [2 + e.max_hbar_degree() for e in c0.data.values()]
        + [3 + e.max_hbar_degree() for c in ci for e in c.data.values()]
    )
    assert need == 2
    birkhoff(i_series_on(g, (2, 2), hbar_min=-need))
    with pytest.raises(BirkhoffError, match="hbar floor -1 too shallow .* need <= -2"):
        birkhoff(i_series_on(g, (2, 2), hbar_min=1 - need))


def test_easyj_mirror_maps():
    res = run_pipeline(easyj(), (4,))
    sr = res.sring
    ring = sr.coeff
    log1p = (sr.one() + sr.variable(0)).log()
    assert (res.mirror.corrections[0] - log1p * rat(3)).is_zero()
    assert (res.mirror.sigma - log1p * ring.lam("lam")).is_zero()


def test_jacobian_single_variable():
    res = run_pipeline(easyj(), (4,))
    g = res.mirror.corrections[0]
    assert res.mirror.jacobian() == res.sring.one() + g.theta(0)


def test_jacobian_two_variables():
    res = run_pipeline(geometry("a_n", 2), (2, 2))
    g1, g2 = res.mirror.corrections
    one = res.sring.one()
    want = (one + g1.theta(0)) * (one + g2.theta(1)) - g1.theta(1) * g2.theta(0)
    assert res.mirror.jacobian() == want


def test_mirror_inverse_round_trip():
    res = run_pipeline(geometry("x_k_factored", 1, "antidiagonal"), (4,))
    g = res.mirror.corrections[0]
    (qx,) = res.mirror.inverse
    assert qx * g.subs((qx,)).exp() == res.sring.variable(0)


def test_normalized_bracket_slices():
    res = run_pipeline(geometry("x_k", -1, "diagonal"), (3,))
    assert res.normalized.hbar_slice(-1).is_zero()
    assert not res.w.is_zero()


def normalize_j_full(j, mirror):
    """Reference: exp(arg) * J(q(x)) built on every hbar level."""
    sring = j.sring
    ring = sring.coeff
    gens = ring.algebra.generators
    arg = sring.zero()
    for i, g in enumerate(mirror.corrections):
        arg = arg - g.subs(mirror.inverse) * ring.p(gens[i])
    arg = arg - mirror.sigma.subs(mirror.inverse)
    arg = arg * ring.hbar(-1)
    return arg.exp() * j.with_prefactor(False).subs(mirror.inverse)


@pytest.mark.parametrize(
    "geom,box",
    [(geometry("x_k_factored", 2, "antidiagonal"), (3,)), (geometry("a_n", 2), (2, 2))],
    ids=["at-infinity", "chain"],
)
def test_sliced_normalization_matches_full_formula(geom, box):
    res = run_pipeline(geom, box)
    full = normalize_j_full(res.factorization.j, res.mirror)
    sliced = normalize_j(res.factorization.j, res.mirror)
    assert sliced == res.normalized
    assert sliced.hbar_range() == (-2, 0)
    assert full.hbar_range()[0] < -2
    for h in (0, -1, -2):
        want, got = full.hbar_slice(h), sliced.hbar_slice(h)
        assert got == want
        flags = {k: c.truncated for k, c in got.data.items()}
        assert flags == {k: c.truncated for k, c in want.data.items()}


def test_conifold_double_bracket_components():
    res = run_pipeline(geometry("x_k", -1, "diagonal"), (4,))
    rest = restrict_w(res.w)
    assert rest.lambda_names == ("lam",)
    sr = rest.sring
    li2 = polylog_series(sr, 2, (1,))
    assert rest.component((0,), (2,)) == li2
    assert rest.component((1,), (1,)) == li2 * rat(-2)
    assert rest.component((0,), (1,)).is_zero()


def test_restriction_sign_flip():
    res = run_pipeline(geometry("x_k", -1, "diagonal"), (4,))
    flipped = restrict_w(res.w, {"lam": ("lam", -1)})
    sr = flipped.sring
    li2 = polylog_series(sr, 2, (1,))
    # even lambda exponents keep their sign, odd ones flip
    assert flipped.component((0,), (2,)) == li2
    assert flipped.component((1,), (1,)) == li2 * rat(2)


def test_restriction_kill_and_rename():
    res = run_pipeline(geometry("x_k", -1, "diagonal"), (4,))
    gone = restrict_w(res.w, {"lam": 0})
    assert gone.components == {}
    renamed = restrict_w(res.w, {"lam": ("mu", 1)})
    assert renamed.lambda_names == ("mu",)


def test_restriction_guards():
    res = run_pipeline(geometry("x_k", -1, "diagonal"), (4,))
    with pytest.raises(PipelineError):
        restrict_w(res.w, {"nope": 0})
    # a weight carried with a pole cannot be set to zero; the bundle ring
    # has a negative floor, so the synthetic lam^-1 term survives to the check
    deep = run_pipeline(geometry("x_k", 1, "antidiagonal"), (2,))
    ring = deep.sring.coeff
    pole = QSeries(deep.sring, {((1,), (0,)): ring.lam("lam", -1)})
    with pytest.raises(PipelineError):
        restrict_w(pole, {"lam": 0})


def test_polylog_inversion_recovers_multicover_numbers():
    sr = restrict_w(run_pipeline(geometry("x_k", -1, "diagonal"), (4,)).w).sring
    n = {(1,): rat(2), (2,): rat(-3), (4,): rat(7)}
    series = sr.zero()
    for beta, c in n.items():
        series = series + polylog_series(sr, 2, beta, c)
    assert polylog_invert(series, 2) == n


def test_polylog_inversion_multivariate_gcd():
    res = run_pipeline(geometry("a_n", 2), (4, 4))
    sr = restrict_w(res.w).sring
    n = {(1, 1): rat(1), (2, 2): rat(-5), (1, 0): rat(3)}
    series = sr.zero()
    for beta, c in n.items():
        series = series + polylog_series(sr, 3, beta, c)
    assert polylog_invert(series, 3) == n
    with pytest.raises(PipelineError):
        polylog_invert(sr.one(), 2)


def test_gw_tables_small_geometries():
    assert gw_table(geometry("x_k", -1, "antidiagonal"), (4,)).entries == {(1,): rat(-1)}
    assert gw_table(geometry("x_k", -1, "diagonal"), (4,)).entries == {(1,): rat(1)}
    assert gw_table(geometry("x_k", 0, "diagonal"), (4,)).entries == {(1,): rat(1)}
    assert gw_table(geometry("y_k", 0), (4, 2)).entries == {(1, 0): rat(1)}


def test_gw_tables_bundle():
    got = gw_table(geometry("x_k", 1, "antidiagonal"), (3,))
    assert got.entries == {(1,): rat(-1), (2,): rat(1), (3,): rat(-2)}
    got2 = gw_table(geometry("x_k", 2, "antidiagonal"), (3,))
    assert got2.entries == {(1,): rat(1), (2,): rat(2), (3,): rat(12)}


def test_gw_table_degree_one_neighborhood_matches_bundle():
    a = gw_table(geometry("d1", None, "antidiagonal"), (3,))
    b = gw_table(geometry("x_k", 1, "antidiagonal"), (3,))
    assert a == b


def test_gw_tables_chains():
    got = gw_table(geometry("a_n", 2), (3, 3))
    assert got.entries == {(1, 0): rat(1), (0, 1): rat(1), (1, 1): rat(1)}
    got3 = gw_table(geometry("a_n", 3), (2, 2, 2))
    want = {
        (1, 0, 0): rat(1),
        (0, 1, 0): rat(1),
        (0, 0, 1): rat(1),
        (1, 1, 0): rat(1),
        (0, 1, 1): rat(1),
        (1, 1, 1): rat(1),
    }
    assert got3.entries == want


def test_gw_table_unsupported_family():
    with pytest.raises(PipelineError):
        gw_table(geometry("trivalent", None, "diagonal"), (2, 2, 2))


def test_gw_table_without_a_rule_fails_before_the_pipeline_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(pipeline, "run_pipeline", refuse)
    with pytest.raises(PipelineError, match="no curve class extraction rule"):
        gw_table(geometry("trivalent", None, "diagonal"), (2, 2, 2))


def test_gw_table_rendering():
    t = GWTable({(2, 1): rat(-5), (1, 0): rat(1, 3)})
    assert t.rows() == [((1, 0), rat(1, 3)), ((2, 1), rat(-5))]
    assert t.render() == {"1,0": "1/3", "2,1": "-5"}
    assert t == GWTable({(1, 0): rat(1, 3), (2, 1): rat(-5)})
    assert t != GWTable({(1, 0): rat(1, 3)})


def test_factored_consistency_small():
    rep = factored_consistency_check(1, "antidiagonal", (3,))
    assert rep.passed, rep


def test_report_from_named_checks():
    rep = ComparisonReport.from_checks("pair", [("first", True), ("second", False)])
    assert rep == ComparisonReport("pair", False, (("first", "ok"), ("second", "mismatch")))
    assert ComparisonReport.from_checks("one", (("only", True),)).passed


def test_fibration_correspondence_small():
    rep = fibration_correspondence_check(3, 2)
    assert rep.passed
    assert dict(rep.details) == {
        "mirror maps": "ok",
        "bracket components": "ok",
        "tables": "ok",
    }


def test_pipeline_results_are_cached():
    g = geometry("x_k", -1, "diagonal")
    assert run_pipeline(g, (3,)) is run_pipeline(g, (3,))


def test_cache_key_covers_every_spec_field():
    spec = dict(
        name="split",
        mori=((1, 1, 1, -1, -1, -1),),
        weights=(None, None, ("lam", 1), ("lam", -1), ("lam", -1), ("lam", -1)),
        generators=("p",),
        relations=({(2,): 1},),
        lambda_names=("lam",),
    )
    at_infinity = run_pipeline(GeometrySpec(infinity_weights=("lam",), **spec), (2,))
    plain = run_pipeline(GeometrySpec(**spec), (2,))
    assert plain is not at_infinity
    assert not at_infinity.mirror.sigma.is_zero()
    assert plain.mirror.sigma.is_zero()
    cubic = dict(spec, relations=({(3,): 1},))
    assert GeometrySpec(**cubic).key != GeometrySpec(**spec).key


PROPERTY_INPUTS = (
    [("x_k", k, a, (3,)) for k in (-1, 0, 1, 2) for a in ("antidiagonal", "diagonal")]
    + [("x_k", k, "generic", (3,)) for k in (-1, 0)]
    + [("x_k_factored", k, a, (3,)) for k in (1, 2) for a in ("antidiagonal", "diagonal")]
    + [("d1", None, a, (3,)) for a in ("antidiagonal", "diagonal")]
    + [
        ("y_k", 0, None, (3, 2)),
        ("y_k", 1, None, (2, 1)),
        ("a_n", 1, None, (3,)),
        ("a_n", 2, None, (2, 2)),
        ("a_n", 3, None, (1, 1, 1)),
    ]
    + [("trivalent", None, a, (1, 1, 1)) for a in ("diagonal", "antidiagonal", "generic")]
)


@pytest.mark.parametrize("family,parameter,action,box", PROPERTY_INPUTS)
def test_pipeline_properties_on_builtin_families(family, parameter, action, box):
    res = run_pipeline(geometry(family, parameter, action), box)
    for (degs, _), elem in res.factorization.j.data.items():
        if any(degs):
            assert all(h < 0 for (_, _, h) in elem.terms), degs
    read = (
        list(res.mirror.corrections)
        + [res.mirror.sigma]
        + list(res.mirror.inverse)
        + list(restrict_w(res.w).components.values())
    )
    assert not any(series.truncated() for series in read)

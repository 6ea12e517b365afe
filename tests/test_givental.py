import importlib.util
import os

import pytest
from hypothesis import given, settings, strategies as st

from eqmirror.exact_core import (
    expand_reciprocal_at_infinity,
    rat,
    reciprocal_hbar_linear,
)
from eqmirror.givental import (
    GeometryError,
    GeometrySpec,
    ThetaOperator,
    annihilation_check,
    a_n,
    d1,
    default_series_ring,
    geometry,
    ifunction,
    trivalent,
    x_k,
    x_k_factored,
    y_k,
)
from eqmirror.pipeline import PipelineError, birkhoff
from eqmirror.series import QSeries, SeriesRing, scalar_coeff_ring


def test_bundle_factories():
    g = x_k(1, "antidiagonal")
    assert g.mori == ((1, 1, 1, -3),)
    assert g.weights == (None, None, ("lam", 1), ("lam", -1))
    assert g.infinity_weights == frozenset({"lam"})
    assert g.algebra.dim == 2
    low = x_k(-1, "generic")
    assert low.weights[2:] == (("lam1", 1), ("lam2", 1))
    assert not low.infinity_weights
    split = x_k_factored(2, "diagonal")
    assert split.mori == ((1, 1, 1, 1, -1, -1, -1, -1),)
    assert split.weights[2:4] == (("lam", 1),) * 2
    assert split.weights[4:] == (("lam", 1),) * 4
    with pytest.raises(GeometryError):
        x_k_factored(0)
    with pytest.raises(GeometryError):
        x_k(1, "sideways")


def test_chain_factory():
    g = a_n(3)
    assert g.mori == (
        (1, -2, 1, 0, 0),
        (0, 1, -2, 1, 0),
        (0, 0, 1, -2, 1),
    )
    assert g.lambda_names == ("lam1", "lam2", "lam3")
    assert g.algebra.dim == 4
    with pytest.raises(GeometryError):
        a_n(0)


def test_trivalent_factory():
    g = trivalent("antidiagonal")
    assert g.weights[3:] == (("lam1", 1), ("lam", 1), ("lam", -1))
    assert g.lambda_names == ("lam1", "lam")
    assert [sum(row) for row in g.mori] == [0, 0, 0]
    with pytest.raises(GeometryError):
        trivalent("skew")


def test_projective_factory():
    g = y_k(0)
    assert g.mori == ((1, 1, 0, -2, 0), (0, 0, 1, 1, 1))
    assert g.lambda_names == ()
    assert g.algebra.dim == 6


def test_dispatcher():
    assert geometry("x_k", 2).name == "x_k(2,antidiagonal)"
    assert geometry("d1", None, "diagonal").name == "d1(diagonal)"
    with pytest.raises(GeometryError):
        geometry("z_k", 1)
    with pytest.raises(GeometryError):
        geometry("x_k")


def test_spec_validation():
    with pytest.raises(GeometryError):
        GeometrySpec("bad", ((1, 2), (1,)), (None, None), ("p",), ({(2,): 1},), ())
    with pytest.raises(GeometryError):
        GeometrySpec(
            "bad",
            ((1, -1),),
            (None, ("mu", 1)),
            ("p",),
            ({(2,): 1},),
            ("lam",),
        )
    with pytest.raises(GeometryError):
        GeometrySpec(
            "bad",
            ((1, -1),),
            (None, ("lam", 2)),
            ("p",),
            ({(2,): 1},),
            ("lam",),
        )
    with pytest.raises(GeometryError):
        GeometrySpec(
            "bad",
            ((1, -1),),
            (None, None),
            ("p",),
            ({(2,): 1},),
            (),
            infinity_weights=("lam",),
        )


def test_spec_rejects_repeated_names():
    with pytest.raises(GeometryError, match="repeated generator names"):
        GeometrySpec(
            "bad",
            ((1, -1), (0, 1)),
            (None, None),
            ("p", "p"),
            ({(2, 0): 1}, {(0, 2): 1}),
            (),
        )
    with pytest.raises(GeometryError, match="repeated lambda names"):
        GeometrySpec("bad", ((1, -1),), (None, ("lam", 1)), ("p",), ({(2,): 1},), ("lam", "lam"))


def test_default_series_ring_windows():
    # at-infinity weights need twice the depth: the factorization pairs
    # lambda^-j tails against lambda^+j series content
    g = x_k(1)
    sr = default_series_ring(g, (3,))
    assert sr.coeff.lambda_floor == (-7,)
    assert (sr.coeff.hbar_min, sr.coeff.hbar_max) == (-10, 7)
    g2 = a_n(2)
    sr2 = default_series_ring(g2, (2, 2))
    assert sr2.coeff.lambda_floor == (0, 0)
    assert (sr2.coeff.hbar_min, sr2.coeff.hbar_max) == (-8, 5)
    assert sr2.variables == ("q1", "q2")
    sr3 = default_series_ring(g, (3,), lambda_depth=9)
    assert sr3.coeff.lambda_floor == (-9,)
    with pytest.raises(GeometryError):
        default_series_ring(g, (2, 2))
    with pytest.raises(GeometryError):
        default_series_ring(g, (3,), lambda_depth=0)


def window_bounds(sring):
    ring = sring.coeff
    return ring.lambda_floor, ring.hbar_min, ring.hbar_max


def test_derived_depth_keeps_every_builtin_one_row_window():
    # the top lambda exponent of a one-row builtin never needs more than
    # 2 sum(box) + 1, so the weight rule leaves these rings as they were
    families = [("x_k", k) for k in range(-1, 6)] + [("x_k_factored", k) for k in range(1, 6)]
    for family, parameter in families + [("d1", None)]:
        for action in ("antidiagonal", "diagonal", "generic"):
            g = geometry(family, parameter, action)
            for b in range(1, 13):
                depth = 2 * b + 1 if g.infinity_weights else b + 1
                want = default_series_ring(g, (b,), lambda_depth=depth)
                assert window_bounds(default_series_ring(g, (b,))) == window_bounds(want), (g, b)


def test_derived_depth_passes_the_top_weight_exponent():
    # one cubic column carrying lam reaches lam^(3d): the depth follows it
    g = GeometrySpec(
        "cubic", ((1, 1, 1, -3),), (None, None, None, ("lam", 1)), ("p",), ({(2,): 1},),
        ("lam",), infinity_weights=("lam",),
    )
    assert window_bounds(default_series_ring(g, (3,))) == ((-10,), -13, 10)
    assert window_bounds(default_series_ring(g, (1,))) == ((-4,), -7, 4)


def test_ifunction_conifold_degree_one():
    g = x_k(-1, "generic")
    sr = default_series_ring(g, (3,))
    ring = sr.coeff
    f = ifunction(g, sr)
    assert f.prefactor
    assert f.constant_term() == ring.one()
    p = ring.p("p")
    l1, l2 = ring.lam("lam1"), ring.lam("lam2")
    # (-p+l1)(-p+l2) / (p+hbar)^2 with p^2 = 0
    want = (
        l1 * l2 * ring.hbar(-2)
        - p * (l1 + l2) * ring.hbar(-2)
        - p * l1 * l2 * ring.hbar(-3) * rat(2)
    )
    assert f.coefficient((1,)) == want


def test_ifunction_bundle_degree_one_assembly():
    # multiply the degree-1 coefficient back by its denominator columns;
    # the defect of the at-infinity reciprocal sits at the lambda floor
    g = x_k(1, "antidiagonal")
    sr = default_series_ring(g, (2,))
    ring = sr.coeff
    f = ifunction(g, sr)
    p, lam, hb = ring.p("p"), ring.lam("lam"), ring.hbar(1)
    num = (-p * 3 - lam) * (-p * 3 - lam - hb) * (-p * 3 - lam - hb * 2)
    den = (p + hb) * (p + hb) * (p + lam + hb)
    resid = f.coefficient((1,)) * den - num
    floor = ring.lambda_floor[0]
    assert all(lexps[0] == floor for (_, lexps, _) in resid.terms)


def test_ifunction_ring_mismatch():
    g = x_k(1)
    sr = default_series_ring(g, (2,))
    with pytest.raises(GeometryError):
        ifunction(x_k_factored(1), sr)
    with pytest.raises(GeometryError):
        ifunction(g, default_series_ring(a_n(2), (2, 2)))


def scalar_sring(order=6, hbar=(-4, 4)):
    return SeriesRing(scalar_coeff_ring(hbar[0], hbar[1]), ("q",), (order,))


def test_operator_normal_ordering():
    sr = scalar_sring()
    ring = sr.coeff
    for weighted, unit in ((True, ring.hbar(1)), (False, ring.one())):
        th = ThetaOperator.theta(ring, 1, weighted=weighted)
        q = ThetaOperator.q_shift(ring, 1, weighted=weighted)
        assert th * q == q * th + q * unit


def test_operator_composition_matches_sequential_application():
    sr = scalar_sring()
    ring = sr.coeff
    th = ThetaOperator.theta(ring, 1, weighted=False)
    q = ThetaOperator.q_shift(ring, 1, weighted=False)
    a = th * th - q * (th * rat(3) + 1)
    b = th + q * q * th
    f = sr.from_rational_terms({(0,): rat(1), (1,): rat(-2), (3,): rat(5, 7)})
    assert (a * b).apply(f) == a.apply(b.apply(f))
    assert (a + b).apply(f) == a.apply(f) + b.apply(f)
    assert (a**2).apply(f) == a.apply(a.apply(f))


def test_operator_application_basics():
    sr = scalar_sring()
    ring = sr.coeff
    th = ThetaOperator.theta(ring, 1, weighted=False)
    q = ThetaOperator.q_shift(ring, 1, weighted=False)
    f = sr.from_rational_terms({(2,): rat(7)})
    assert th.apply(f) == f * rat(2)
    assert q.apply(f) == sr.from_rational_terms({(3,): rat(7)})
    one = ThetaOperator.constant(ring, 1, ring.one(), weighted=False)
    assert one.apply(f) == f
    assert ThetaOperator.zero(ring, 1, weighted=False).apply(f).is_zero()


def test_operator_guards():
    sr = scalar_sring()
    ring = sr.coeff
    th_w = ThetaOperator.theta(ring, 1, weighted=True)
    th_p = ThetaOperator.theta(ring, 1, weighted=False)
    with pytest.raises(GeometryError):
        th_w + th_p
    with pytest.raises(GeometryError):
        th_w**-1
    f = sr.variable(0)
    with pytest.raises(GeometryError):
        th_w.apply(f)  # plain series, weighted operator
    other = scalar_sring()
    with pytest.raises(GeometryError):
        ThetaOperator.theta(other.coeff, 1, weighted=False).apply(f)
    with pytest.raises(GeometryError):
        ThetaOperator(ring, 1, {((0,), (-1,)): ring.one()})


def test_operator_raise_bounds():
    sr = scalar_sring()
    ring = sr.coeff
    th = ThetaOperator.theta(ring, 1)
    assert th.hbar_raise() == 1
    assert (th * th).hbar_raise() == 2
    assert ThetaOperator.q_shift(ring, 1).hbar_raise() == 0
    c = ThetaOperator.constant(ring, 1, ring.hbar(2))
    assert c.hbar_raise() == 2


def test_annihilation_conifold():
    # theta^2 - q (theta - l1)(theta - l2) kills the conifold series
    g = x_k(-1, "generic")
    sr = default_series_ring(g, (3,))
    ring = sr.coeff
    f = ifunction(g, sr)
    th = ThetaOperator.theta(ring, 1)
    q = ThetaOperator.q_shift(ring, 1)
    op = th * th - q * (th - ring.lam("lam1")) * (th - ring.lam("lam2"))
    assert annihilation_check(op, f).is_zero()


# ---------------------------------------------------------------------------
# the running-product I-series against the from-scratch construction
# ---------------------------------------------------------------------------


def from_scratch_coefficient(geom, ring, degs, deep=False):
    """C_d built from scratch, every factor multiplied in per degree: the
    construction the running product replaced, kept as its oracle.

    ``deep`` lowers the construction's hbar floor by its ceiling.  No partial
    product reaches above the ceiling, so the orders a clipped 1/hbar
    expansion lacks then stay below the ring's floor, and every retained
    term is exact.  Without it the construction loses terms near the floor
    on some custom geometries.
    """
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
    return ring.convert(total)


def from_scratch_ifunction(geom, sring, deep=False):
    zl = (0,) * sring.nvars
    ring = sring.coeff
    data = {
        (degs, zl): from_scratch_coefficient(geom, ring, degs, deep) if any(degs) else ring.one()
        for degs in sring.degree_keys()
    }
    return QSeries(sring, data, prefactor=True)


def _benchmark_inputs():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    jobs = [job for sizes in module.PIPELINE_JOBS.values() for job in sizes.values()]
    jobs += module.CLI_INPUTS.values()
    return {(fam, par, act, box, ()) for group in jobs for fam, par, act, box in group}


# (family, parameter, action, box, windows): every builtin geometry and box
# the tests and the benchmark build, plus a few more presentations
_TEST_INPUTS = {
    ("x_k", -1, "generic", (2,), ()),
    ("x_k", -1, "antidiagonal", (2,), ()),
    ("x_k", -1, "antidiagonal", (3,), ()),
    ("x_k", 0, "diagonal", (3,), ()),
    ("x_k", 1, "antidiagonal", (2,), (("lambda_depth", 6), ("hbar_min", -9), ("hbar_max", 6))),
    ("x_k", 1, "diagonal", (3,), ()),
    ("x_k", 2, "antidiagonal", (3,), ()),
    ("x_k", 2, "diagonal", (3,), ()),
    ("x_k_factored", 1, "antidiagonal", (2,), ()),
    ("x_k_factored", 1, "diagonal", (3,), ()),
    ("x_k_factored", 2, "diagonal", (3,), ()),
    ("d1", None, "antidiagonal", (3,), ()),
    ("a_n", 2, None, (2, 2), (("hbar_min", -2),)),
    ("a_n", 2, None, (2, 2), (("hbar_min", -1),)),
    ("x_k", -1, "generic", (3,), ()),
    ("x_k", -1, "generic", (4,), ()),
    ("x_k", -1, "diagonal", (3,), ()),
    ("x_k", -1, "diagonal", (4,), ()),
    ("x_k", -1, "antidiagonal", (4,), ()),
    ("x_k", 0, "diagonal", (4,), ()),
    ("x_k", 1, "antidiagonal", (2,), ()),
    ("x_k", 1, "antidiagonal", (3,), ()),
    ("x_k", 1, "antidiagonal", (4,), (("lambda_depth", 3),)),
    ("x_k", 1, "antidiagonal", (2,), (("lambda_depth", 5), ("hbar_min", -8), ("hbar_max", 5))),
    ("x_k", 1, "antidiagonal", (2,), (("lambda_depth", 4), ("hbar_min", -8), ("hbar_max", 5))),
    ("x_k", 1, "antidiagonal", (2,), (("lambda_depth", 5), ("hbar_min", -7), ("hbar_max", 5))),
    ("x_k", 1, "antidiagonal", (2,), (("lambda_depth", 5), ("hbar_min", -8), ("hbar_max", 4))),
    ("x_k", 1, "generic", (4,), ()),
    ("x_k", 2, "diagonal", (4,), ()),
    ("x_k", -3, "generic", (4,), ()),
    ("x_k_factored", 1, "antidiagonal", (3,), ()),
    ("x_k_factored", 1, "antidiagonal", (4,), ()),
    ("x_k_factored", 1, "antidiagonal", (6,), ()),
    ("x_k_factored", 2, "antidiagonal", (3,), ()),
    ("x_k_factored", 3, "antidiagonal", (6,), ()),
    ("x_k_factored", 4, "antidiagonal", (6,), ()),
    ("d1", None, "antidiagonal", (6,), ()),
    ("d1", None, "generic", (4,), ()),
    ("a_n", 2, None, (2, 2), ()),
    ("a_n", 2, None, (3, 3), ()),
    ("a_n", 2, None, (4, 4), ()),
    ("trivalent", None, "diagonal", (2, 2, 2), ()),
    ("trivalent", None, "antidiagonal", (2, 2, 2), ()),
    ("y_k", 0, None, (3, 2), ()),
    ("y_k", 0, None, (4, 2), ()),
}


@pytest.mark.parametrize(
    "family, parameter, action, box, windows",
    sorted(_TEST_INPUTS | _benchmark_inputs(), key=repr),
    ids=lambda v: repr(v).replace(" ", ""),
)
def test_ifunction_matches_the_from_scratch_construction(family, parameter, action, box, windows):
    geom = geometry(family, parameter, action)
    sr = default_series_ring(geom, box, **dict(windows))
    got, want = ifunction(geom, sr), from_scratch_ifunction(geom, sr)
    assert got.data.keys() == want.data.keys()
    for key, c in want.data.items():
        assert got.data[key].terms == c.terms, key
        assert got.data[key].truncated == c.truncated, key


@st.composite
def custom_geometries(draw):
    """One- or two-row charge matrices with mixed signs, some weights dominant."""
    nrows = draw(st.integers(1, 2))
    ncols = draw(st.integers(2, 4))
    mori = [[draw(st.integers(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
    names = draw(st.sampled_from((("lam",), ("lam1", "lam2"))))
    weight = st.one_of(st.none(), st.tuples(st.sampled_from(names), st.sampled_from((1, -1))))
    weights = [draw(weight) for _ in range(ncols)]
    if nrows == 1:
        gens, rels = ("p",), ({(2,): 1},)
    else:
        gens, rels = ("p1", "p2"), ({(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1})
    geom = GeometrySpec(
        "custom", mori, weights, gens, rels, names,
        infinity_weights=draw(st.sampled_from(((), names[:1]))),
    )
    box = tuple(draw(st.integers(1, 3 if nrows == 1 else 2)) for _ in range(nrows))
    return geom, box


@settings(max_examples=300, deadline=None)
@given(custom_geometries())
def test_default_ring_is_deep_enough_for_birkhoff(case):
    # birkhoff re-derives the weight window from the series it is given;
    # the default ring must always pass that check
    geom, box = case
    try:
        birkhoff(ifunction(geom, default_series_ring(geom, box)))
    except PipelineError as exc:
        assert "retention windows too shallow" not in str(exc)


@settings(max_examples=60, deadline=None)
@given(custom_geometries())
def test_ifunction_on_custom_geometries(case):
    geom, box = case
    sr = default_series_ring(geom, box)
    got, exact = ifunction(geom, sr), from_scratch_ifunction(geom, sr, deep=True)
    scratch = from_scratch_ifunction(geom, sr)
    assert got.data.keys() == exact.data.keys()
    for key, c in exact.data.items():
        assert got.data[key].terms == c.terms, key
        # the running product clips no more than the from-scratch build
        assert scratch.data.get(key, c).truncated or not got.data[key].truncated, key

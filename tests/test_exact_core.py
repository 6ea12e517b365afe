import pytest
from hypothesis import given, settings, strategies as st

from eqmirror.exact_core import (
    AlgebraError,
    CoefficientError,
    CoeffRing,
    RingElem,
    algebra_from_relations,
    divide_linear,
    elem_invert,
    expand_reciprocal_at_infinity,
    rat,
    rat_str,
    reciprocal_hbar_linear,
)


def test_rat_basics():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(-4, 6) == rat(-2, 3)
    assert rat_str(rat(-7, 8)) == "-7/8"
    assert rat_str(rat(5)) == "5"
    assert rat_str(rat(0)) == "0"


def line_algebra():
    return algebra_from_relations(("p",), ({(2,): 1},))


def test_line_algebra_shape():
    alg = line_algebra()
    assert alg.dim == 2
    assert alg.is_associative()


def test_surface_algebra_all_products_vanish():
    rels = ({(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1})
    alg = algebra_from_relations(("p1", "p2"), rels)
    assert alg.dim == 3
    ring = CoeffRing(alg)
    assert (ring.p("p1") * ring.p("p2")).is_zero()
    assert (ring.p("p2") * ring.p("p2")).is_zero()


def test_projective_bundle_algebra_normal_form():
    # p1^2 = 0 and p2^2 (p2 - 2 p1) = 0: six-dimensional quotient where
    # p2^3 reduces to 2 p1 p2^2
    cubic = {(0, 3): 1, (1, 2): -2}
    alg = algebra_from_relations(("p1", "p2"), ({(2, 0): 1}, cubic))
    assert alg.dim == 6
    assert alg.is_associative()
    ring = CoeffRing(alg)
    p1, p2 = ring.p("p1"), ring.p("p2")
    assert p2**3 == p1 * p2**2 * rat(2)
    assert (p2**4).is_zero()
    assert (p1 * p2**3).is_zero()


def test_window_validation():
    alg = line_algebra()
    with pytest.raises(CoefficientError):
        CoeffRing(alg, ("lam",), (1,))
    with pytest.raises(CoefficientError):
        CoeffRing(alg, ("lam",), (0,), hbar_min=1, hbar_max=2)
    with pytest.raises(CoefficientError):
        CoeffRing(alg, ("lam",), ())


def test_window_clipping_sets_flag():
    ring = CoeffRing(line_algebra(), ("lam",), (-2,), hbar_min=-1, hbar_max=1)
    e = ring.lam("lam", -3)
    assert e.is_zero() and e.truncated
    f = ring.hbar(2)
    assert f.is_zero() and f.truncated
    g = ring.lam("lam", -1) * ring.hbar(1)
    assert not g.truncated
    # stickiness through arithmetic
    assert (g + e).truncated
    assert (g * e).truncated


def wide_ring():
    return CoeffRing(line_algebra(), ("lam",), (-9,), hbar_min=-9, hbar_max=9)


small_rat = st.builds(rat, st.integers(-9, 9), st.integers(1, 9))
term_key = st.tuples(
    st.integers(0, 1),
    st.tuples(st.integers(-1, 1)),
    st.integers(-1, 1),
)
elem_terms = st.dictionaries(term_key, small_rat, max_size=4)


def build(terms):
    return wide_ring().elem(terms)


# exponent magnitudes stay at most 1 per factor, so triple products never
# reach the +-9 windows and the laws hold on the nose
@settings(max_examples=80, deadline=None)
@given(elem_terms, elem_terms, elem_terms)
def test_ring_axioms(ta, tb, tc):
    ring = wide_ring()
    a, b, c = ring.elem(ta), ring.elem(tb), ring.elem(tc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.one() == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(elem_terms, elem_terms)
def test_hbar_slices_respect_products(ta, tb):
    ring = wide_ring()
    a, b = ring.elem(ta), ring.elem(tb)
    h = 0
    direct = (a * b).hbar_coefficient(h)
    convolved = ring.zero()
    for i in range(-1, 2):
        convolved = convolved + a.hbar_coefficient(i) * b.hbar_coefficient(h - i)
    assert direct == convolved


@pytest.mark.parametrize("k", range(1, 6))
def test_euler_class_identity(k):
    # (k p + l1)((-2-k) p + l2) l1^(k-1) l2^(k+1) == (p + l1)^k (-p + l2)^(2+k)
    # in Q[p]/(p^2): the factored presentation carries the same Euler data
    ring = CoeffRing(line_algebra(), ("lam1", "lam2"), (0, 0))
    p = ring.p("p")
    l1, l2 = ring.lam("lam1"), ring.lam("lam2")
    lhs = (p * rat(k) + l1) * (p * rat(-2 - k) + l2) * l1 ** (k - 1) * l2 ** (k + 1)
    rhs = (p + l1) ** k * (-p + l2) ** (2 + k)
    assert lhs == rhs


def test_reciprocal_at_infinity_nilpotent_is_exact():
    ring = CoeffRing(line_algebra(), ("lam",), (-6,))
    form = ring.p("p") + ring.lam("lam")
    r = expand_reciprocal_at_infinity(form, "lam")
    assert (form * r - ring.one()).is_zero()
    assert not r.truncated
    # hand value: 1/(lam + p) = lam^-1 - p lam^-2
    assert r == ring.lam("lam", -1) - ring.p("p") * ring.lam("lam", -2)


def test_reciprocal_at_infinity_negative_sign():
    ring = CoeffRing(line_algebra(), ("lam",), (-6,))
    form = ring.p("p") - ring.lam("lam")
    r = expand_reciprocal_at_infinity(form, "lam")
    assert (form * r - ring.one()).is_zero()


def test_reciprocal_at_infinity_with_hbar_tail():
    ring = CoeffRing(line_algebra(), ("lam",), (-4,), hbar_min=-4, hbar_max=4)
    form = ring.p("p") + ring.hbar(1) * rat(2) + ring.lam("lam")
    r = expand_reciprocal_at_infinity(form, "lam")
    # the hbar part makes the tail infinite; everything above the floor is
    # exact and the multiply-back defect is confined to the floor level
    assert r.truncated
    resid = form * r - ring.one()
    assert all(lexps == (-4,) for (_, lexps, _) in resid.terms)


def test_reciprocal_at_infinity_rejections():
    ring = CoeffRing(line_algebra(), ("lam",), (-4,))
    with pytest.raises(CoefficientError):
        expand_reciprocal_at_infinity(ring.lam("lam") * rat(2), "lam")
    flat = CoeffRing(line_algebra(), ("lam",), (0,))
    with pytest.raises(CoefficientError):
        expand_reciprocal_at_infinity(flat.lam("lam"), "lam")


def test_reciprocal_hbar_linear():
    ring = CoeffRing(line_algebra(), (), (), hbar_min=-6, hbar_max=2)
    form = ring.p("p") + ring.hbar(1) * rat(3)
    r = reciprocal_hbar_linear(form)
    assert (form * r - ring.one()).is_zero()
    assert not r.truncated
    assert r == ring.hbar(-1) * rat(1, 3) - ring.p("p") * ring.hbar(-2) * rat(1, 9)


def test_reciprocal_hbar_linear_polynomial_weight():
    ring = CoeffRing(line_algebra(), ("lam",), (0,), hbar_min=-5, hbar_max=1)
    form = ring.p("p") + ring.lam("lam") + ring.hbar(1)
    r = reciprocal_hbar_linear(form)
    assert r.truncated
    resid = form * r - ring.one()
    assert all(h == -5 for (_, _, h) in resid.terms)


def test_reciprocal_hbar_linear_degenerate():
    ring = CoeffRing(line_algebra(), (), (), hbar_min=-4, hbar_max=0)
    with pytest.raises(CoefficientError):
        reciprocal_hbar_linear(ring.p("p"))


def test_elem_invert():
    ring = CoeffRing(line_algebra())
    e = ring.scalar(2) + ring.p("p") * rat(3)
    inv = elem_invert(e)
    assert e * inv == ring.one()
    assert inv == ring.scalar(rat(1, 2)) - ring.p("p") * rat(3, 4)
    with pytest.raises(CoefficientError):
        elem_invert(ring.p("p"))


def test_elem_invert_rejects_scalar_tails():
    ring = CoeffRing(line_algebra(), ("lam",), (0,))
    with pytest.raises(CoefficientError):
        elem_invert(ring.one() + ring.lam("lam"))


def test_inverses_keep_the_truncated_flag():
    # a term clipped from the input leaves every reciprocal of it inexact
    ring = CoeffRing(line_algebra(), ("lam",), (-4,), hbar_min=-2, hbar_max=2)
    p, h = ring.p("p"), ring.hbar(1)
    e = ring.scalar(2) + p * h + ring.hbar(3)
    assert e.truncated
    inv = elem_invert(e)
    assert inv.truncated
    assert inv == ring.scalar(rat(1, 2)) - p * h * rat(1, 4)
    clipped = ring.hbar(5)
    assert not reciprocal_hbar_linear(h + p).truncated
    assert reciprocal_hbar_linear(h + p + clipped).truncated
    assert not expand_reciprocal_at_infinity(ring.lam("lam") + p, "lam").truncated
    assert expand_reciprocal_at_infinity(ring.lam("lam") + p + clipped, "lam").truncated


def test_convert_between_windows():
    tight = CoeffRing(line_algebra(), ("lam",), (-2,), hbar_min=-2, hbar_max=2)
    wide = tight.widened(lam_extra=2, h_lo=2, h_hi=2)
    assert wide.lambda_floor == (-4,)
    assert (wide.hbar_min, wide.hbar_max) == (-4, 4)
    e = wide.lam("lam", -3)
    clipped = tight.convert(e)
    assert clipped.is_zero() and clipped.truncated
    other = CoeffRing(line_algebra(), ("mu",), (0,))
    with pytest.raises(CoefficientError):
        tight.convert(other.lam("mu"))


def test_split_and_scalar_readers():
    ring = CoeffRing(line_algebra(), ("lam",), (0,), hbar_min=-1, hbar_max=1)
    e = ring.scalar(5) + ring.p("p") * ring.lam("lam") + ring.hbar(-1)
    parts = e.split_cohomology()
    assert set(parts) == {0, 1}
    assert parts[1] == ring.lam("lam")
    assert e.hbar_range() == (-1, 0)
    assert e.hbar_coefficient(-1) == ring.one()
    assert ring.scalar(7).scalar_value() == rat(7)
    assert ring.zero().scalar_value() == rat(0)
    with pytest.raises(CoefficientError):
        e.scalar_value()


def test_algebra_rejects_non_nilpotent_presentations():
    with pytest.raises(AlgebraError):
        algebra_from_relations(("p",), (), max_degree=8)


# ---------------------------------------------------------------------------
# the shared geometric-series reciprocal against the explicit formulas
# ---------------------------------------------------------------------------


def reference_reciprocal_at_infinity(form, lam, depth=None):
    """sum_j (-1)^j s^(j+1) x^j lam^(-j-1) written out term by term."""
    ring = form.ring
    i = ring.lambda_names.index(lam)
    s = next(c for (b, lexps, h), c in form.terms.items() if lexps[i])
    x = RingElem(ring, {k: c for k, c in form.terms.items() if not k[1][i]})
    jmax = -ring.lambda_floor[i] - 1
    if depth is not None:
        jmax = min(jmax, depth)
    total, xj, exact = ring.zero(), ring.one(), False
    for j in range(jmax + 1):
        total = total + xj * ring.lam(i, -j - 1) * rat((-1) ** j * int(s) ** (j + 1))
        xj = xj * x
        if xj.is_zero():
            exact = not xj.truncated
            break
    return RingElem(ring, dict(total.terms), total.truncated or not exact or form.truncated)


def reference_reciprocal_hbar(form):
    """sum_j (-1)^j m^(-j-1) x^j hbar^(-j-1) written out term by term."""
    ring = form.ring
    m = next(c for (b, lexps, h), c in form.terms.items() if h == 1)
    x = RingElem(ring, {k: c for k, c in form.terms.items() if k[2] == 0})
    total, xj, exact = ring.zero(), ring.one(), False
    for j in range(-ring.hbar_min):
        total = total + xj * ring.hbar(-j - 1) * ((rat(1) / m) ** (j + 1) * (-1) ** j)
        xj = xj * x
        if xj.is_zero():
            exact = not xj.truncated
            break
    return RingElem(ring, dict(total.terms), total.truncated or not exact or form.truncated)


def reference_elem_invert(e):
    """r^-1 sum_j (-w)^j with w = (e - r) / r, up to the top degree,
    flagged when e is."""
    ring = e.ring
    unit = (0, (0,) * ring.nlambda, 0)
    rinv = rat(1) / e.terms[unit]
    w = RingElem(ring, {k: c for k, c in e.terms.items() if k != unit}) * rinv
    total, wj = ring.one(), ring.one()
    for _ in range(ring.algebra.top_degree):
        wj = wj * w * rat(-1)
        if wj.is_zero():
            break
        total = total + wj
    total = total * rinv
    return RingElem(ring, dict(total.terms), total.truncated or e.truncated)


def cubic_algebra():
    return algebra_from_relations(("p",), ({(3,): 1},))


nonzero_rat = st.builds(rat, st.integers(-5, 5).filter(bool), st.integers(1, 4))
coeff_or_zero = st.one_of(st.just(0), nonzero_rat)
window = st.tuples(st.integers(-6, 0), st.integers(0, 4))


def same(got, want):
    return got.terms == want.terms and got.truncated == want.truncated


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, -1), window, st.sampled_from((1, -1)),
    coeff_or_zero, coeff_or_zero, coeff_or_zero, st.one_of(st.none(), st.integers(-1, 6)),
)
def test_reciprocal_at_infinity_matches_formula(floor, hwin, s, cp, ch, cmu, depth):
    ring = CoeffRing(cubic_algebra(), ("lam", "mu"), (floor, -2), *hwin)
    form = ring.lam("lam") * rat(s) + ring.p("p") * cp + ring.hbar(1) * ch + ring.lam("mu") * cmu
    got = expand_reciprocal_at_infinity(form, "lam", depth)
    assert same(got, reference_reciprocal_at_infinity(form, "lam", depth))


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 0), nonzero_rat, coeff_or_zero, coeff_or_zero, st.integers(-3, 0))
def test_reciprocal_hbar_linear_matches_formula(hbar_min, m, cp, clam, lam_floor):
    ring = CoeffRing(cubic_algebra(), ("lam",), (lam_floor,), hbar_min, 1)
    form = ring.hbar(1) * m + ring.p("p") * cp + ring.lam("lam") * clam
    assert same(reciprocal_hbar_linear(form), reference_reciprocal_hbar(form))


nilpotent_key = st.tuples(st.integers(1, 2), st.tuples(st.integers(-2, 2)), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(
    window, st.integers(-3, 0), nonzero_rat, st.dictionaries(nilpotent_key, nonzero_rat, max_size=4)
)
def test_elem_invert_matches_formula(hwin, lam_floor, r, tail):
    ring = CoeffRing(cubic_algebra(), ("lam",), (lam_floor,), *hwin)
    e = ring.scalar(r) + ring.elem(tail)
    assert same(elem_invert(e), reference_elem_invert(e))


# ---------------------------------------------------------------------------
# exact division by a linear form against the product by its expansion
# ---------------------------------------------------------------------------


def test_divide_linear_hand_values():
    ring = CoeffRing(line_algebra(), ("lam",), (-3,), hbar_min=-3, hbar_max=3)
    p, lam, h = ring.p("p"), ring.lam("lam"), ring.hbar(1)
    # (lam + p)(h - p) / (lam + p) is exact and unflagged
    got = divide_linear((lam + p) * (h - p), lam + p, "lam")
    assert got == h - p and not got.truncated
    # 1/(2h + p) = h^-1/2 - p h^-2/4 ends above the floor
    got = divide_linear(ring.one(), h * rat(2) + p)
    assert got == ring.hbar(-1) * rat(1, 2) - p * ring.hbar(-2) * rat(1, 4)
    assert not got.truncated
    # 1/(h + lam) goes on below the floor: exact above it, and flagged
    got = divide_linear(ring.one(), h + lam)
    assert got.truncated
    assert got == ring.hbar(-1) - lam * ring.hbar(-2) + lam * lam * ring.hbar(-3)
    with pytest.raises(CoefficientError):
        divide_linear(ring.one(), lam * rat(2) + p, "lam")
    with pytest.raises(CoefficientError):
        divide_linear(ring.one(), p)
    with pytest.raises(CoefficientError):
        divide_linear(CoeffRing(line_algebra()).one(), h + p)


division_key = st.tuples(
    st.integers(0, 2), st.tuples(st.integers(-6, 2), st.integers(-3, 2)), st.integers(-7, 4)
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("lam", None)),
    st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4)),
    coeff_or_zero, coeff_or_zero, coeff_or_zero,
    st.integers(-5, -1), st.tuples(st.integers(-6, 0), st.integers(1, 4)),
    st.dictionaries(division_key, nonzero_rat, max_size=6),
)
def test_divide_linear_matches_the_expansion_product(lead, m, cp, cx, cmu, floor, hwin, pterms):
    # lead s*lam (s the sign of m) with rest p, hbar and mu, or lead m*hbar
    # with rest p, lam and mu; p may carry clipped terms and so a flag
    ring = CoeffRing(cubic_algebra(), ("lam", "mu"), (floor, -2), *hwin)
    p = ring.elem(pterms)
    rest = ring.p("p") * cp + ring.lam("mu") * cmu
    if lead:
        form = ring.lam("lam") * rat(1 if m > 0 else -1) + ring.hbar(1) * cx + rest
    else:
        form = ring.hbar(1) * m + ring.lam("lam") * cx + rest
    got = divide_linear(p, form, lead)

    # p times the expansion of 1/form, built deep enough to be exact in the
    # window: the lead's floor lowered by p's top grade, and for a lambda
    # lead the hbar ceiling raised by p's lowest hbar exponent
    top = max((k[1][0] if lead else k[2] for k in p.terms), default=0) + 1
    low = min((k[2] for k in p.terms), default=0)
    if lead:
        deep = ring.widened(lam_extra=max(0, top), h_hi=max(0, -low))
        expansion = expand_reciprocal_at_infinity(deep.convert(form), "lam")
    else:
        deep = ring.widened(h_lo=max(0, top))
        expansion = reciprocal_hbar_linear(deep.convert(form))
    want = ring.convert(deep.convert(p) * expansion)
    assert got.terms == want.terms
    assert want.truncated or not got.truncated

    # a deeper-window division agrees inside the window, and an unflagged
    # quotient is the whole of it and multiplies back to p
    deeper = ring.widened(lam_extra=6, h_lo=6, h_hi=6)
    far = divide_linear(deeper.convert(p), deeper.convert(form), lead)
    assert ring.convert(far).terms == got.terms
    if not got.truncated:
        assert far.terms == got.terms and not far.truncated
        wide = ring.widened(h_hi=1)
        assert wide.convert(got) * wide.convert(form) == wide.convert(p)

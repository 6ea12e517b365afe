"""Equivariant hypergeometric I-series for toric curve neighborhoods.

A geometry bundles a charge matrix (rows index curve classes, columns index
torus-weighted line summands), one equivariant weight per column, and a
presentation of the cohomology algebra of the compact part.  ``ifunction``
turns that data into the q-expansion of

    I(q) = e^{sum_i p_i log q_i / hbar} sum_d q^d C_d(p, lambda, hbar)

with C_d a product over columns: writing L_j = <d, l^j> for the pairing of
the degree d with column j and D_j = sum_i l^j_i p_i + w_j,

    C_d^j = prod_{m=1}^{L_j} (D_j + m hbar)^{-1}      L_j > 0
          = 1                                         L_j = 0
          = prod_{m=L_j+1}^{0} (D_j + m hbar)         L_j < 0

The m = 0 factor of a negative column is kept unless D_j vanishes
identically.  Reciprocal factors are divided out exactly, one grade at a
time (``divide_linear``): down in lambda for columns whose weight is marked
dominant (``infinity_weights``), down in hbar otherwise.

C_d is built as a running product along degree chains.  Its predecessor is
the first d - e_i (in ``degree_keys`` order) whose numerator, 1/lambda and
1/hbar factor multisets all lie inside d's, or else the zero degree with
product 1; d multiplies the predecessor's stored product by the numerators
it lacks, then divides it by the missing 1/lambda factors, then by the
missing 1/hbar factors.  A stored product is dropped once its last child is
built.

Window clipping stays loss-free: a term dropped on the way can never reach
a retained term of any C_d.

* lambda: one construction floor for the box, ``pad`` below the ring's,
  with pad the largest number of numerators carrying a dominant weight in
  any C_d.  A numerator lifts a weight's exponent by at most one and a
  1/lambda division lowers it by at least one, so a product's exponent plus
  the lift of the numerators still to come is at most pad: a term, or a
  division level, cut at the construction floor ends below the ring's.
* hbar ceiling: every factor is homogeneous of degree +-1 in p, lambda and
  hbar, so no partial product reaches past the largest numerator count
  plus sum(pad - floor) over the negative lambda floors; one ceiling that
  high serves the box and clips nothing.
* hbar floor: of the factors a product still lacks towards a descendant
  along its chain, a numerator lifts hbar by at most one, a 1/hbar division
  lowers it by at least one, and a 1/lambda division lifts it by j on the
  terms it moves j + 1 levels down in the weight.  The 1/lambda divisions
  of one weight therefore lift by at most that weight's exponent in the
  descendant (numerators carrying it minus its 1/lambda factors) minus the
  ring's floor.  Each product keeps hbar exponents down to the ring's
  floor minus the largest such lift over its descendants (the per-chain
  floor slack, never negative), so a term clipped there cannot climb back.
  A division is exact down to the floor it runs on, whatever the product's
  top exponent.
"""

import itertools
from collections import Counter
from math import comb

from .exact_core import (
    CoeffRing,
    RingElem,
    divide_linear,
    poly,
    poly_mul,
    rat,
    algebra_from_relations,
)
from .series import QSeries, SeriesRing


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# geometry data
# ---------------------------------------------------------------------------


class GeometrySpec:
    """Charge matrix, equivariant weights, and cohomology presentation.

    ``mori`` is a tuple of rows, one per curve class; ``weights`` holds one
    entry per column, either ``None`` or ``(lambda_name, sign)``;
    ``infinity_weights`` lists the weight names whose reciprocal factors are
    expanded at lambda = infinity rather than hbar-adically.
    """

    __slots__ = (
        "name",
        "family",
        "parameter",
        "action",
        "mori",
        "weights",
        "generators",
        "relations",
        "lambda_names",
        "infinity_weights",
        "algebra",
        "key",
    )

    def __init__(
        self,
        name,
        mori,
        weights,
        generators,
        relations,
        lambda_names,
        infinity_weights=(),
        family="custom",
        parameter=None,
        action=None,
    ):
        mori = tuple(tuple(int(c) for c in row) for row in mori)
        if not mori or not mori[0]:
            raise GeometryError("charge matrix must be nonempty")
        if any(len(row) != len(mori[0]) for row in mori):
            raise GeometryError("charge matrix must be rectangular")
        generators = tuple(generators)
        if len(generators) != len(mori):
            raise GeometryError("need one cohomology generator per curve class row")
        weights = tuple(None if w is None else (str(w[0]), int(w[1])) for w in weights)
        if len(weights) != len(mori[0]):
            raise GeometryError("need one weight entry per column")
        lambda_names = tuple(str(n) for n in lambda_names)
        for what, names in (("generator", generators), ("lambda", lambda_names)):
            if len(set(names)) != len(names):
                raise GeometryError("repeated %s names in %r" % (what, names))
        for w in weights:
            if w is None:
                continue
            if w[1] not in (-1, 1):
                raise GeometryError("weight signs must be +1 or -1")
            if w[0] not in lambda_names:
                raise GeometryError("weight name %r missing from lambda_names" % (w[0],))
        infinity_weights = frozenset(str(n) for n in infinity_weights)
        if not infinity_weights <= set(lambda_names):
            raise GeometryError("infinity weights must be declared lambda names")
        self.name = str(name)
        self.family = str(family)
        self.parameter = parameter
        self.action = action
        self.mori = mori
        self.weights = weights
        self.generators = generators
        self.relations = tuple(poly(r) for r in relations)
        self.lambda_names = lambda_names
        self.infinity_weights = infinity_weights
        self.algebra = algebra_from_relations(generators, self.relations)
        # every field, so specs that differ anywhere never share a cache entry
        self.key = (
            self.name,
            self.family,
            self.parameter,
            self.action,
            self.mori,
            self.weights,
            self.generators,
            tuple(tuple(sorted(r.items())) for r in self.relations),
            self.lambda_names,
            tuple(sorted(self.infinity_weights)),
        )
        try:
            hash(self.key)
        except TypeError:
            raise GeometryError("geometry labels must be hashable")

    @property
    def nrows(self):
        return len(self.mori)

    @property
    def ncols(self):
        return len(self.mori[0])

    def column_pairing(self, degs, j):
        """L_j = <d, l^j> for the given multidegree."""
        return sum(d * row[j] for d, row in zip(degs, self.mori))

    def __repr__(self):
        return "GeometrySpec(%s)" % self.name


def _x_action(action):
    if action == "antidiagonal":
        return (("lam", 1), ("lam", -1)), ("lam",)
    if action == "diagonal":
        return (("lam", 1), ("lam", 1)), ("lam",)
    if action == "generic":
        return (("lam1", 1), ("lam2", 1)), ("lam1", "lam2")
    raise GeometryError("unknown torus action %r" % (action,))


def x_k(k, action="antidiagonal"):
    """Total space of O(k) + O(-2-k) over P1, fiberwise torus action."""
    k = int(k)
    (w1, w2), names = _x_action(action)
    infinity = (w1[0],) if k >= 1 else ()
    return GeometrySpec(
        name="x_k(%d,%s)" % (k, action),
        mori=((1, 1, k, -2 - k),),
        weights=(None, None, w1, w2),
        generators=("p",),
        relations=({(2,): 1},),
        lambda_names=names,
        infinity_weights=infinity,
        family="x_k",
        parameter=k,
        action=action,
    )


def x_k_factored(k, action="antidiagonal"):
    """Same bundle as :func:`x_k` with the degree-k column split into k
    unit-charge columns and the degree-(-2-k) column into 2+k columns."""
    k = int(k)
    if k < 1:
        raise GeometryError("the factored presentation needs k >= 1")
    (w1, w2), names = _x_action(action)
    return GeometrySpec(
        name="x_k_factored(%d,%s)" % (k, action),
        mori=((1, 1) + (1,) * k + (-1,) * (2 + k),),
        weights=(None, None) + (w1,) * k + (w2,) * (2 + k),
        generators=("p",),
        relations=({(2,): 1},),
        lambda_names=names,
        infinity_weights=(w1[0],),
        family="x_k_factored",
        parameter=k,
        action=action,
    )


def d1(action="antidiagonal"):
    """Degree-one curve neighborhood with charge row (1,1,1,-1,-2)."""
    (w1, w2), names = _x_action(action)
    return GeometrySpec(
        name="d1(%s)" % action,
        mori=((1, 1, 1, -1, -2),),
        weights=(None, None, w1, w2, w2),
        generators=("p",),
        relations=({(2,): 1},),
        lambda_names=names,
        infinity_weights=(w1[0],),
        family="d1",
        parameter=None,
        action=action,
    )


def _tree(family, parameter, action, mori, weights):
    """Curves glued along a tree: one generator p_i per curve (charge row),
    relations p_i p_j = 0 for i <= j, and the lambda names in the order
    their columns first carry them."""
    n = len(mori)
    rels = tuple(
        {tuple((m == i) + (m == j) for m in range(n)): 1} for i in range(n) for j in range(i, n)
    )
    return GeometrySpec(
        name="%s(%s)" % (family, action if parameter is None else parameter),
        mori=mori,
        weights=weights,
        generators=tuple("p%d" % i for i in range(1, n + 1)),
        relations=rels,
        lambda_names=tuple(dict.fromkeys(w[0] for w in weights if w)),
        family=family,
        parameter=parameter,
        action=action,
    )


def a_n(n):
    """Resolved A_n surface chain: n curves, n+2 columns, generic weights."""
    n = int(n)
    if n < 1:
        raise GeometryError("a_n needs n >= 1")
    mori = []
    for r in range(1, n + 1):
        row = [0] * (n + 2)
        row[r - 1] += 1
        row[r] -= 2
        row[r + 1] += 1
        mori.append(tuple(row))
    # the sign pins the orientation of the odd-weight components of the
    # double bracket; -1 makes the p_i lam_i parts match the prepotential
    # derivative combinations read off the interior columns
    weights = (None,) + tuple(("lam%d" % i, -1) for i in range(1, n + 1)) + (None,)
    return _tree("a_n", n, "generic", tuple(mori), weights)


def trivalent(action="generic"):
    """Three rational curves meeting in one point, weights on the last
    three columns; presets fix lam2, lam3 to +-lam and keep lam1 free."""
    if action == "generic":
        w = (("lam1", 1), ("lam2", 1), ("lam3", 1))
    elif action == "diagonal":
        w = (("lam1", 1), ("lam", 1), ("lam", 1))
    elif action == "antidiagonal":
        w = (("lam1", 1), ("lam", 1), ("lam", -1))
    else:
        raise GeometryError("unknown torus action %r" % (action,))
    mori = (
        (1, 0, 0, 1, -1, -1),
        (0, 1, 0, -1, 1, -1),
        (0, 0, 1, -1, -1, 1),
    )
    return _tree("trivalent", None, action, mori, (None, None, None) + w)


def y_k(k):
    """Projective bundle P(O(k) + O(-2-k) + O) over P1, no torus weights."""
    k = int(k)
    cubic = poly_mul(
        poly_mul(poly({(1, 0): k, (0, 1): 1}), poly({(1, 0): -2 - k, (0, 1): 1})),
        poly({(0, 1): 1}),
    )
    return GeometrySpec(
        name="y_k(%d)" % k,
        mori=((1, 1, k, -2 - k, 0), (0, 0, 1, 1, 1)),
        weights=(None,) * 5,
        generators=("p1", "p2"),
        relations=({(2, 0): 1}, cubic),
        lambda_names=(),
        family="y_k",
        parameter=k,
        action=None,
    )


_FAMILIES = {
    "x_k": lambda p, a: x_k(p, a or "antidiagonal"),
    "x_k_factored": lambda p, a: x_k_factored(p, a or "antidiagonal"),
    "d1": lambda p, a: d1(a or "antidiagonal"),
    "a_n": lambda p, a: a_n(p),
    "trivalent": lambda p, a: trivalent(a or "generic"),
    "y_k": lambda p, a: y_k(p),
}


def geometry(family, parameter=None, action=None):
    """Factory dispatch used by the command line layer."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise GeometryError("unknown geometry family %r" % (family,))
    if family in ("x_k", "x_k_factored", "a_n", "y_k") and parameter is None:
        raise GeometryError("family %r needs an integer parameter" % (family,))
    return builder(parameter, action)


# ---------------------------------------------------------------------------
# coefficient and series rings with retention defaults
# ---------------------------------------------------------------------------


def default_series_ring(geom, box, lambda_depth=None, hbar_min=None, hbar_max=None):
    """Series ring sized so every downstream read stays exact.

    The hbar window defaults to [-(depth + 3), depth]: the lower bound
    leaves room for the double 1/hbar bracket read after normalization
    (two units) plus one unit for each hbar carried by the normalizing
    coefficients.  The lambda depth is sum(box) + 1, or with at-infinity
    weights one past the top exponent of each dominant weight in any C_d,
    which the factorization pairs against lambda^-j tails: numerators lift
    it by at most one each and 1/lambda factors lower it by at least one
    each, so it is at most sum_i box_i max(0, -c_i), c_i the sum of l^j_i
    over the columns j carrying the weight.  That depth is never below
    2 sum(box) + 1.  The overrides probe the thresholds ``birkhoff`` checks.
    """
    box = tuple(int(b) for b in box)
    if len(box) != geom.nrows or any(b < 0 for b in box):
        raise GeometryError("box must give one nonnegative bound per curve class")
    if lambda_depth is not None:
        depth = int(lambda_depth)
    elif geom.infinity_weights:
        depth = 2 * sum(box) + 1
        for name in geom.infinity_weights:
            carrying = [j for j, w in enumerate(geom.weights) if w and w[0] == name]
            charges = (sum(row[j] for j in carrying) for row in geom.mori)
            depth = max(depth, 1 + sum(b * max(0, -c) for b, c in zip(box, charges)))
    else:
        depth = sum(box) + 1
    if depth < 1:
        raise GeometryError("lambda depth must be positive")
    hmax = depth if hbar_max is None else int(hbar_max)
    hmin = -(depth + 3) if hbar_min is None else int(hbar_min)
    floors = tuple(
        -depth if name in geom.infinity_weights else 0 for name in geom.lambda_names
    )
    ring = CoeffRing(geom.algebra, geom.lambda_names, floors, hmin, hmax)
    names = ("q",) if geom.nrows == 1 else tuple("q%d" % (i + 1) for i in range(geom.nrows))
    return SeriesRing(ring, names, box)


# ---------------------------------------------------------------------------
# the I-series
# ---------------------------------------------------------------------------


def _factors(geom, degs):
    """The factors of C_d as three multisets of ``(charges, m, weight)``:
    numerators, 1/lambda reciprocals and 1/hbar reciprocals."""
    numerators, at_infinity, hbar_adic = Counter(), Counter(), Counter()
    for j in range(geom.ncols):
        charges = tuple(row[j] for row in geom.mori)
        pairing = geom.column_pairing(degs, j)
        w = geom.weights[j]
        if pairing < 0:
            numerators.update((charges, m, w) for m in range(pairing + 1, 1))
        elif w is not None and w[0] in geom.infinity_weights:
            at_infinity.update((charges, m, w) for m in range(1, pairing + 1))
        else:
            hbar_adic.update((charges, m, w) for m in range(1, pairing + 1))
    return numerators, at_infinity, hbar_adic


def _chain(keys, factors):
    """Each degree's predecessor: the first d - e_i in ``degree_keys`` order
    whose factor multisets all lie inside d's, else the zero degree."""
    parent = {}
    for d in keys[1:]:
        parent[d] = keys[0]
        for i in range(len(d)):
            if d[i]:
                cand = d[:i] + (d[i] - 1,) + d[i + 1 :]
                if all(a <= b for a, b in zip(factors[cand], factors[d])):
                    parent[d] = cand
                    break
    return parent


def _floor_slack(geom, ring, keys, parent, factors):
    """How far below the ring's hbar floor each product must reach.

    ``lift(a, b, e)`` bounds the hbar lift that the factors of C_e still
    missing from a product with a's numerators and b's reciprocals can give
    a term of that product whose image stays in the ring's windows (module
    docstring).  ``keep[d]`` serves the product stored for d's children,
    ``recip[d]`` the product divided by d's new reciprocal factors; both are the
    largest lift over the descendants along the chain, and at least 0.
    """
    counts = {}
    for d, (numerators, at_infinity, hbar_adic) in factors.items():
        cuts, net = Counter(), Counter()
        for (_, _, w), n in numerators.items():
            if w is not None and w[0] in geom.infinity_weights:
                net[w[0]] += n
        for (_, _, w), n in at_infinity.items():
            cuts[w[0]] += n
            net[w[0]] -= n
        counts[d] = (sum(numerators.values()), sum(hbar_adic.values()), cuts, net)
    dominant = [
        (name, floor)
        for name, floor in zip(ring.lambda_names, ring.lambda_floor)
        if name in geom.infinity_weights
    ]

    def lift(a, b, e):
        n_num, n_hbar, cuts, net = counts[e]
        out = n_num - counts[a][0] - (n_hbar - counts[b][1])
        for name, floor in dominant:
            if cuts[name] > counts[b][2][name]:
                out += max(0, net[name] - floor)
        return out

    keep, recip = Counter(), Counter()
    for e in keys[1:]:
        d = e
        while d != keys[0]:
            p = parent[d]
            recip[d] = max(recip[d], lift(d, p, e))
            keep[p] = max(keep[p], lift(p, p, e))
            d = p
    for d in keys[1:]:
        recip[d] = max(recip[d], keep[d])
    return keep, recip


def ifunction(geom, sring):
    """q-expansion of the equivariant I-series on the given ring.

    Returns a prefactor-flagged :class:`QSeries`: the stored coefficients
    are the bracket part, with e^{sum p_i log q_i / hbar} kept symbolic.
    Each C_d is its predecessor's product times the numerators it lacks,
    divided by the reciprocal factors it lacks.
    """
    ring = sring.coeff
    if ring.algebra is not geom.algebra:
        raise GeometryError("series ring must be built on the geometry's algebra")
    if ring.lambda_names != geom.lambda_names:
        raise GeometryError("series ring lambda names disagree with the geometry")
    if sring.nvars != geom.nrows:
        raise GeometryError("series ring needs one variable per curve class")
    keys = sring.degree_keys()
    root = keys[0]
    factors = {d: _factors(geom, d) for d in keys}
    parent = _chain(keys, factors)
    new = {d: tuple(a - b for a, b in zip(factors[d], factors[parent[d]])) for d in keys[1:]}
    keep, recip = _floor_slack(geom, ring, keys, parent, factors)

    # one lambda pad and one hbar ceiling for the whole box
    pad = max(
        sum(n for (_, _, w), n in f[0].items() if w is not None and w[0] in geom.infinity_weights)
        for f in factors.values()
    )
    ceiling = max(sum(f[0].values()) for f in factors.values())
    ceiling += sum(pad - floor for floor in ring.lambda_floor if floor < 0)
    h_hi, rings = max(0, ceiling - ring.hbar_max), {}

    def work(slack):
        # one ring object per slack, so products on it need no conversion
        return rings.setdefault(slack, ring.widened(lam_extra=pad, h_lo=slack, h_hi=h_hi))

    children = Counter(parent.values())
    zl = (0,) * sring.nvars
    data = {(root, zl): ring.one()}
    stored = {root: work(keep[root]).one()}
    for d in keys[1:]:
        p = parent[d]
        total = stored[p]
        children[p] -= 1
        if not children[p]:
            del stored[p]
        numerators, at_infinity, hbar_adic = new[d]
        for charges, m, w in numerators.elements():
            form = total.ring.linear_form(charges, m, w)
            if form.is_zero():
                continue  # identically zero divisor class: drop the m = 0 factor
            total = total * form
        w_ring = work(recip[d])
        total = w_ring.convert(total)
        for charges, m, w in at_infinity.elements():
            total = divide_linear(total, w_ring.linear_form(charges, m, w), w[0])
        for factor in hbar_adic.elements():
            total = divide_linear(total, w_ring.linear_form(*factor))
        if children[d]:
            stored[d] = work(keep[d]).convert(total)
        data[(d, zl)] = ring.convert(total)
    return QSeries(sring, data, prefactor=True)


# ---------------------------------------------------------------------------
# normal-ordered theta operators
# ---------------------------------------------------------------------------


class ThetaOperator:
    """Normal-ordered operator sum_{d,a} q^d c_{d,a} theta^a.

    Weighted operators act on prefactor series, where theta_i denotes
    hbar q_i d/dq_i conjugated through the exponential prefactor (so
    theta_i picks up p_i + d_i hbar on the q^d coefficient); unweighted
    operators act on plain series with theta_i = q_i d/dq_i.  Composition
    uses theta_i^a q^d = q^d (theta_i + d_i u)^a with u = hbar resp. 1.
    """

    __slots__ = ("ring", "nvars", "weighted", "terms")

    def __init__(self, ring, nvars, terms, weighted=True):
        self.ring = ring
        self.nvars = int(nvars)
        self.weighted = bool(weighted)
        clean = {}
        for (degs, texps), c in terms.items():
            degs = tuple(int(d) for d in degs)
            texps = tuple(int(e) for e in texps)
            if len(degs) != self.nvars or len(texps) != self.nvars:
                raise GeometryError("operator keys must match the variable count")
            if any(d < 0 for d in degs) or any(e < 0 for e in texps):
                raise GeometryError("operator exponents must be nonnegative")
            if not isinstance(c, RingElem):
                c = ring.scalar(c)
            elif c.ring is not ring:
                raise GeometryError("operator coefficients must share one ring")
            if c.is_zero():
                continue
            key = (degs, texps)
            prev = clean.get(key)
            clean[key] = c if prev is None else prev + c
        self.terms = {k: v for k, v in clean.items() if not v.is_zero()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars, weighted=True):
        return cls(ring, nvars, {}, weighted)

    @classmethod
    def constant(cls, ring, nvars, value, weighted=True):
        zk = (0,) * nvars
        return cls(ring, nvars, {(zk, zk): value}, weighted)

    @classmethod
    def theta(cls, ring, nvars, i=0, weighted=True):
        zk = (0,) * nvars
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, {(zk, e): ring.one()}, weighted)

    @classmethod
    def q_shift(cls, ring, nvars, degs=None, weighted=True):
        zk = (0,) * nvars
        if degs is None:
            degs = tuple(1 if j == 0 else 0 for j in range(nvars))
        return cls(ring, nvars, {(tuple(degs), zk): ring.one()}, weighted)

    # -- algebra --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ThetaOperator):
            if other.ring is not self.ring or other.nvars != self.nvars:
                raise GeometryError("operators live on different rings")
            if other.weighted != self.weighted:
                raise GeometryError("cannot mix weighted and unweighted operators")
            return other
        return ThetaOperator.constant(self.ring, self.nvars, other, self.weighted)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
        return ThetaOperator(self.ring, self.nvars, terms, self.weighted)

    __radd__ = __add__

    def __neg__(self):
        return ThetaOperator(
            self.ring, self.nvars, {k: -c for k, c in self.terms.items()}, self.weighted
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for (d1, a), c1 in self.terms.items():
            for (d2, b), c2 in other.terms.items():
                base = c1 * c2
                for s in itertools.product(*(range(ai + 1) for ai in a)):
                    scale = 1
                    for ai, si, d2i in zip(a, s, d2):
                        scale *= comb(ai, si) * d2i ** (ai - si)
                    if scale == 0:
                        continue
                    c = base * rat(scale)
                    drop = sum(ai - si for ai, si in zip(a, s))
                    if drop and self.weighted:
                        c = c * self.ring.hbar(drop)
                    key = (
                        tuple(x + y for x, y in zip(d1, d2)),
                        tuple(si + bi for si, bi in zip(s, b)),
                    )
                    prev = terms.get(key)
                    terms[key] = c if prev is None else prev + c
        return ThetaOperator(self.ring, self.nvars, terms, self.weighted)

    def __rmul__(self, other):
        # scalars commute with everything we store
        return self._coerce(other) * self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise GeometryError("operator powers must be nonnegative")
        out = ThetaOperator.constant(self.ring, self.nvars, self.ring.one(), self.weighted)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.nvars == other.nvars
            and self.weighted == other.weighted
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return "ThetaOperator(%d terms, weighted=%s)" % (len(self.terms), self.weighted)

    def hbar_raise(self):
        """Largest hbar-degree shift the operator can apply to a term.

        Weighted theta factors lift by at most one each (the d_i hbar part);
        coefficient hbar powers add on top.  Levels within this distance of
        the series window floor cannot be trusted after an application.
        """
        worst = 0
        for (degs, texps), c in self.terms.items():
            lift = sum(texps) if self.weighted else 0
            worst = max(worst, lift + max(c.max_hbar_degree(), 0))
        return worst

    def lambda_raise(self, position):
        """Largest lift of the lambda exponent at the given position."""
        worst = 0
        for (degs, texps), c in self.terms.items():
            for (b, lexps, h) in c.terms:
                worst = max(worst, lexps[position])
        return worst

    # -- action on series -----------------------------------------------------

    def apply(self, series):
        if series.sring.coeff is not self.ring:
            raise GeometryError("operator and series coefficient rings differ")
        if series.sring.nvars != self.nvars:
            raise GeometryError("operator and series variable counts differ")
        if self.weighted != series.prefactor:
            kind = "prefactor" if self.weighted else "plain"
            raise GeometryError("this operator acts on %s series" % kind)
        sring = series.sring
        cache = {(0,) * self.nvars: series}

        def power(texps):
            got = cache.get(texps)
            if got is not None:
                return got
            i = next(idx for idx, e in enumerate(texps) if e)
            lower = texps[:i] + (texps[i] - 1,) + texps[i + 1 :]
            g = power(lower)
            g = g.theta_weighted(i) if self.weighted else g.theta(i)
            cache[texps] = g
            return g

        out = sring.zero()
        for (degs, texps), c in sorted(self.terms.items()):
            g = power(texps) * c
            if any(degs):
                g = g * sring.monomial(degs)
            out = out + g
        return out


def annihilation_check(operator, series):
    """Apply the operator and hand back the trustworthy residual.

    Applying an operator to window-clipped coefficients leaves artifacts at
    hbar-levels within :meth:`ThetaOperator.hbar_raise` of the floor, where
    the needed sub-floor data was discarded; those levels are stripped.  A
    zero result certifies annihilation on every level the window can see.
    """
    residual = operator.apply(series)
    ring = series.sring.coeff
    hfloor = ring.hbar_min + operator.hbar_raise()
    lfloors = tuple(
        f + operator.lambda_raise(i) if f < 0 else None
        for i, f in enumerate(ring.lambda_floor)
    )
    if hfloor <= ring.hbar_min and all(f is None for f in lfloors):
        return residual

    def keep(key):
        b, lexps, h = key
        if h < hfloor:
            return False
        return all(f is None or e >= f for e, f in zip(lexps, lfloors))

    def strip(elem):
        terms = {k: v for k, v in elem.terms.items() if keep(k)}
        return RingElem(elem.ring, terms, elem.truncated)

    return residual.map_coefficients(strip)

"""Exact coefficient arithmetic for equivariant series computations.

Every series coefficient produced by this package lives in a tensor product

    (cohomology quotient ring)  x  (Laurent monomials in weight variables)
                                x  (Laurent monomials in hbar)

with arbitrary-precision rational coefficients.  The cohomology factor is a
finite-dimensional quotient Q[p_1, .., p_r] / (relations) with an explicit
multiplication table, so nilpotency is structural rather than enforced by
degree cutoffs.  The weight variables ("lam", "lam1", ...) are the torus
weights of a geometry; hbar is the Givental parameter.

Laurent exponents are kept inside explicit retention windows.  A weight
variable that is expanded about infinity has a negative floor (exponents
below the floor are discarded and the element is flagged as truncated);
a weight variable treated polynomially has floor 0.  hbar exponents are
retained inside a closed window [hbar_min, hbar_max].  Arithmetic never
resurrects a discarded exponent, so anything read inside the window of a
carefully constructed element is exact; the pipeline widens windows during
construction and clips afterwards for exactly this reason.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpq as _ratimpl
except ImportError:  # gmpy2 is optional; CI and perfbench use this fallback
    _ratimpl = Fraction

__all__ = [
    "AlgebraError",
    "CoeffRing",
    "CohomAlgebra",
    "CoefficientError",
    "RingElem",
    "algebra_from_relations",
    "divide_linear",
    "elem_invert",
    "expand_reciprocal_at_infinity",
    "rat",
    "rat_str",
    "reciprocal_hbar_linear",
]


def rat(numerator=0, denominator=1):
    """Exact rational with arbitrary-precision integer parts."""
    return _ratimpl(numerator, denominator)


_R0 = rat(0)
_R1 = rat(1)


def rat_str(value) -> str:
    """Render a rational as ``num`` or ``num/den`` with positive denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class AlgebraError(ValueError):
    """Raised when a relation set does not present a usable finite quotient."""


class CoefficientError(ValueError):
    """Raised on invalid coefficient-ring operations (windows, inverses)."""


# ---------------------------------------------------------------------------
# small exact polynomial helpers (exponent-tuple keyed dicts)
# ---------------------------------------------------------------------------


def poly(terms) -> dict:
    """Normalize ``{exps: coeff}``-style input to a rational polynomial dict."""
    out = {}
    for exps, c in dict(terms).items():
        m = tuple(int(e) for e in exps)
        c = rat(c) if not isinstance(c, type(_R1)) else c
        if c != 0:
            out[m] = out.get(m, _R0) + c
    return {m: c for m, c in out.items() if c != 0}


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = out.get(m, _R0) + ca * cb
            if c == 0:
                out.pop(m, None)
            else:
                out[m] = c
    return out


def _mono_key(m):
    # graded order; ties broken so that earlier generators dominate
    return (sum(m), tuple(-e for e in m))


def _normal_form(p: dict, echelon: dict) -> dict:
    """Fully reduce ``p`` modulo monic pivot rows keyed by leading monomial."""
    work = dict(p)
    reduced = {}
    while work:
        m = max(work, key=_mono_key)
        c = work.pop(m)
        if c == 0:
            continue
        row = echelon.get(m)
        if row is None:
            reduced[m] = reduced.get(m, _R0) + c
            continue
        for m2, c2 in row.items():
            if m2 == m:
                continue
            nc = work.get(m2, _R0) - c * c2
            if nc == 0:
                work.pop(m2, None)
            else:
                work[m2] = nc
    return {m: c for m, c in reduced.items() if c != 0}


class CohomAlgebra:
    """Finite-dimensional graded quotient of a polynomial ring.

    Holds the standard-monomial basis (unit first) and a sparse
    multiplication table; products of basis monomials whose degree exceeds
    the truncation bound established by the relations are identically zero.
    """

    def __init__(self, generators, basis, table, top_degree):
        self.generators = tuple(generators)
        self.basis = tuple(tuple(m) for m in basis)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.table = table
        self.top_degree = top_degree
        if self.basis[0] != (0,) * len(self.generators):
            raise AlgebraError("quotient basis must start with the unit monomial")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_index(self, g) -> int:
        """Basis index of a single generator (by position or name)."""
        pos = g if isinstance(g, int) else self.generators.index(g)
        exps = tuple(1 if j == pos else 0 for j in range(len(self.generators)))
        if exps not in self.index:
            raise AlgebraError(f"generator {g!r} is not a standard monomial")
        return self.index[exps]

    def mul_basis(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.table.get((i, j), ())

    def monomial_str(self, i: int) -> str:
        exps = self.basis[i]
        parts = []
        for name, e in zip(self.generators, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def is_associative(self) -> bool:
        """Exhaustive associativity check of the multiplication table."""
        def mul_vec(vec, k):
            out = {}
            for i, c in vec.items():
                for j, cb in self.mul_basis(i, k):
                    out[j] = out.get(j, _R0) + c * cb
            return {a: b for a, b in out.items() if b != 0}

        for i in range(self.dim):
            for j in range(self.dim):
                ij = {k: c for k, c in self.mul_basis(i, j)}
                for k in range(self.dim):
                    left = mul_vec(ij, k)
                    jk = {a: b for a, b in self.mul_basis(j, k)}
                    right = {}
                    for a, b in jk.items():
                        for m, cm in self.mul_basis(i, a):
                            right[m] = right.get(m, _R0) + b * cm
                    right = {a: b for a, b in right.items() if b != 0}
                    if left != right:
                        return False
        return True


def algebra_from_relations(generators, relations, max_degree: int = 12) -> CohomAlgebra:
    """Build the quotient algebra Q[generators]/(relations).

    The relations must be homogeneous and cut out a finite-dimensional
    quotient below ``max_degree``; this covers every geometry shipped here
    (general Groebner machinery is out of scope).  Reduction is exact
    Gaussian elimination over the graded monomial span.
    """
    generators = tuple(generators)
    ngens = len(generators)
    rels = []
    for r in relations:
        p = poly(r)
        if not p:
            continue
        degs = {sum(m) for m in p}
        if len(degs) > 1:
            raise AlgebraError("non-homogeneous relations are unsupported")
        rels.append(p)
    if not rels:
        raise AlgebraError("at least one relation is required for a finite quotient")

    start = max(2, max(sum(next(iter(r))) for r in rels))
    for bound in range(start, max_degree + 1):
        monos = [
            m
            for m in itertools.product(*(range(bound + 1) for _ in range(ngens)))
            if sum(m) <= bound
        ]
        echelon = {}
        for rel in rels:
            rel_deg = sum(next(iter(rel)))
            for mult in monos:
                if sum(mult) + rel_deg > bound:
                    continue
                row = {tuple(a + b for a, b in zip(m, mult)): c for m, c in rel.items()}
                nf = _normal_form(row, echelon)
                if nf:
                    lead = max(nf, key=_mono_key)
                    lc = nf[lead]
                    echelon[lead] = {m: c / lc for m, c in nf.items()}
        top = [m for m in monos if sum(m) == bound]
        if all(m in echelon for m in top):
            basis = sorted(
                (m for m in monos if sum(m) < bound and m not in echelon),
                key=_mono_key,
            )
            bindex = {m: i for i, m in enumerate(basis)}
            table = {}
            for i, mi in enumerate(basis):
                for j in range(i, len(basis)):
                    mj = basis[j]
                    prod = tuple(a + b for a, b in zip(mi, mj))
                    if sum(prod) >= bound:
                        continue
                    nf = _normal_form({prod: _R1}, echelon)
                    entry = []
                    for m, c in nf.items():
                        if m not in bindex:
                            raise AlgebraError("reduction left a non-standard monomial")
                        entry.append((bindex[m], c))
                    if entry:
                        table[(i, j)] = tuple(sorted(entry))
            top_degree = max((sum(m) for m in basis), default=0)
            return CohomAlgebra(generators, basis, table, top_degree)
    raise AlgebraError(
        f"relations do not truncate below degree {max_degree}; quotient is not finite"
    )


# ---------------------------------------------------------------------------
# coefficient ring with retention windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffRing:
    """Context for tower elements: algebra, weight variables, windows.

    ``lambda_floor[i]`` is the lowest retained exponent of weight variable i
    (0 for polynomially treated weights, negative for weights expanded about
    infinity).  hbar exponents are retained in [hbar_min, hbar_max].
    """

    algebra: CohomAlgebra
    lambda_names: tuple = ()
    lambda_floor: tuple = ()
    hbar_min: int = 0
    hbar_max: int = 0

    def __post_init__(self):
        if len(self.lambda_names) != len(self.lambda_floor):
            raise CoefficientError("one floor per weight variable is required")
        if any(f > 0 for f in self.lambda_floor):
            raise CoefficientError("weight floors must be <= 0")
        if self.hbar_min > 0 or self.hbar_max < 0:
            raise CoefficientError("hbar window must contain exponent 0")

    # -- constructors ------------------------------------------------------

    @property
    def nlambda(self) -> int:
        return len(self.lambda_names)

    def zero(self) -> "RingElem":
        return RingElem(self, {})

    def one(self) -> "RingElem":
        return self.scalar(_R1)

    def scalar(self, value) -> "RingElem":
        value = rat(value) if not isinstance(value, type(_R1)) else value
        if value == 0:
            return self.zero()
        return RingElem(self, {(0, (0,) * self.nlambda, 0): value})

    def elem(self, terms, truncated: bool = False) -> "RingElem":
        fixed = {}
        for (b, lexps, h), c in terms.items():
            c = rat(c) if not isinstance(c, type(_R1)) else c
            fixed[(int(b), tuple(lexps), int(h))] = c
        return RingElem(self, fixed, truncated)

    def p(self, g, power: int = 1) -> "RingElem":
        """A power of one cohomology generator as a ring element."""
        pos = g if isinstance(g, int) else self.algebra.generators.index(g)
        exps = tuple(power if j == pos else 0 for j in range(len(self.algebra.generators)))
        idx = self.algebra.index.get(exps)
        if idx is None:
            return self.zero()
        return RingElem(self, {(idx, (0,) * self.nlambda, 0): _R1})

    def lam(self, name, power: int = 1) -> "RingElem":
        i = name if isinstance(name, int) else self.lambda_names.index(name)
        lexps = tuple(power if j == i else 0 for j in range(self.nlambda))
        return RingElem(self, {(0, lexps, 0): _R1})

    def hbar(self, power: int = 1) -> "RingElem":
        return RingElem(self, {(0, (0,) * self.nlambda, power): _R1})

    def linear_form(self, p_coeffs=(), hbar_coeff: int = 0, weight=None) -> "RingElem":
        """sum_i c_i p_i + m hbar + sign * lambda_name, assembled exactly."""
        terms = {}
        zl = (0,) * self.nlambda
        for pos, c in enumerate(p_coeffs):
            if c == 0:
                continue
            exps = tuple(1 if j == pos else 0 for j in range(len(self.algebra.generators)))
            idx = self.algebra.index.get(exps)
            if idx is None:
                continue
            terms[(idx, zl, 0)] = rat(c)
        if hbar_coeff:
            terms[(0, zl, 1)] = rat(hbar_coeff)
        if weight is not None:
            name, sign = weight
            i = self.lambda_names.index(name)
            lexps = tuple(1 if j == i else 0 for j in range(self.nlambda))
            terms[(0, lexps, 0)] = terms.get((0, lexps, 0), _R0) + rat(sign)
        return RingElem(self, terms)

    # -- window management -------------------------------------------------

    def widened(self, lam_extra: int = 0, h_lo: int = 0, h_hi: int = 0) -> "CoeffRing":
        """Same tower with floors lowered / hbar window padded (for construction)."""
        floors = tuple(f - lam_extra if f < 0 else f for f in self.lambda_floor)
        return CoeffRing(
            self.algebra,
            self.lambda_names,
            floors,
            self.hbar_min - h_lo,
            self.hbar_max + h_hi,
        )

    def convert(self, elem: "RingElem") -> "RingElem":
        """Clip (or re-home) an element into this ring's windows."""
        if elem.ring is self:
            return elem
        if elem.ring.algebra is not self.algebra or elem.ring.lambda_names != self.lambda_names:
            raise CoefficientError("cannot convert between unrelated coefficient rings")
        return RingElem(self, dict(elem.terms), elem.truncated)


class RingElem:
    """Immutable sparse element of a :class:`CoeffRing`.

    Terms map ``(basis_index, lambda_exponents, hbar_exponent)`` to rationals.
    Out-of-window terms are dropped at construction time and flagged via
    ``truncated``; the flag is sticky under arithmetic.
    """

    __slots__ = ("ring", "terms", "truncated")

    def __init__(self, ring: CoeffRing, terms: dict, truncated: bool = False):
        floors = ring.lambda_floor
        hmin, hmax = ring.hbar_min, ring.hbar_max
        kept = {}
        for key, c in terms.items():
            if c == 0:
                continue
            _, lexps, h = key
            if h < hmin or h > hmax or any(e < f for e, f in zip(lexps, floors)):
                truncated = True
                continue
            kept[key] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "truncated", truncated)

    def __setattr__(self, *args):
        raise AttributeError("RingElem is immutable")

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, numbers.Rational):
            other = self.ring.scalar(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        raise TypeError("RingElem is not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        alg = self.ring.algebra
        bits = []
        for (b, lexps, h), c in sorted(self.terms.items()):
            factors = []
            cs = rat_str(c)
            if cs != "1" or (b == 0 and not any(lexps) and h == 0):
                factors.append(cs)
            if b:
                factors.append(alg.monomial_str(b))
            for name, e in zip(self.ring.lambda_names, lexps):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            if h:
                factors.append("h" if h == 1 else f"h^{h}")
            bits.append("*".join(factors))
        return " + ".join(bits)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, numbers.Rational):
            return self.ring.scalar(other)
        if isinstance(other, RingElem):
            if other.ring is not self.ring:
                raise CoefficientError("mixed coefficient rings in arithmetic")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            nc = out.get(k, _R0) + c
            if nc == 0:
                out.pop(k, None)
            else:
                out[k] = nc
        return RingElem(self.ring, out, self.truncated or o.truncated)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, {k: -c for k, c in self.terms.items()}, self.truncated)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, numbers.Rational):
            if other == 0:
                return self.ring.zero()
            return RingElem(
                self.ring, {k: c * other for k, c in self.terms.items()}, self.truncated
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        ring = self.ring
        alg = ring.algebra
        floors = ring.lambda_floor
        hmin, hmax = ring.hbar_min, ring.hbar_max
        out = {}
        truncated = self.truncated or o.truncated
        for (b1, l1, h1), c1 in a.items():
            for (b2, l2, h2), c2 in b.items():
                h = h1 + h2
                if h < hmin or h > hmax:
                    truncated = True
                    continue
                lexps = tuple(x + y for x, y in zip(l1, l2))
                if any(e < f for e, f in zip(lexps, floors)):
                    truncated = True
                    continue
                base = alg.mul_basis(b1, b2)
                if not base:
                    continue
                c = c1 * c2
                for b3, cb in base:
                    key = (b3, lexps, h)
                    nc = out.get(key, _R0) + c * cb
                    if nc == 0:
                        out.pop(key, None)
                    else:
                        out[key] = nc
        return RingElem(ring, out, truncated)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise CoefficientError("negative powers require an explicit expansion")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, numbers.Rational):
            if other == 0:
                raise ZeroDivisionError("division of ring element by zero")
            return self * (rat(1) / rat(other))
        return NotImplemented

    # -- structure access ----------------------------------------------------

    def coefficient(self, basis_index: int, lexps, h: int):
        return self.terms.get((basis_index, tuple(lexps), h), _R0)

    def hbar_coefficient(self, h: int) -> "RingElem":
        """Coefficient of hbar^h, returned with the hbar exponent cleared."""
        out = {
            (b, lexps, 0): c
            for (b, lexps, hh), c in self.terms.items()
            if hh == h
        }
        return RingElem(self.ring, out, self.truncated)

    def hbar_range(self):
        hs = [h for (_, _, h) in self.terms]
        return (min(hs), max(hs)) if hs else (0, 0)

    def split_cohomology(self) -> dict:
        """Map basis index -> scalar-positioned element (basis factor stripped)."""
        parts = {}
        for (b, lexps, h), c in self.terms.items():
            parts.setdefault(b, {})[(0, lexps, h)] = c
        return {
            b: RingElem(self.ring, terms, self.truncated) for b, terms in parts.items()
        }

    def is_scalar(self) -> bool:
        return all(b == 0 and not any(l) and h == 0 for (b, l, h) in self.terms)

    def scalar_value(self):
        if not self.terms:
            return _R0
        if not self.is_scalar():
            raise CoefficientError(f"element is not a pure rational: {self!r}")
        return next(iter(self.terms.values()))

    def max_hbar_degree(self) -> int:
        return max((h for (_, _, h) in self.terms), default=0)


# ---------------------------------------------------------------------------
# reciprocals
# ---------------------------------------------------------------------------


def _geometric_reciprocal(x: RingElem, lead_inv, jmax: int):
    """sum_{j=0..jmax} lead_inv^(j+1) (-x)^j, the expansion of 1/(lead + x).

    ``lead_inv`` is the inverse of a one-term lead commuting with x: a
    rational or a one-term element.  Returns the sum and whether the tail
    vanished exactly, i.e. some power x^j with j <= jmax + 1 is zero and
    was never clipped.
    """
    total = x.ring.zero()
    xj = x.ring.one()
    coeff = lead_inv
    for _ in range(jmax + 1):
        total = total + xj * coeff
        xj = xj * x
        if xj.is_zero():
            return total, not xj.truncated
        coeff = coeff * -lead_inv
    return total, False


def _split_linear(form: RingElem, i=None):
    """The lead of a linear form, s*lam_i (s = +-1) when ``i`` indexes a
    weight or else m*hbar, as ``(key, coefficient)``, and the rest, which
    has grade 0 in the lead's variable."""
    ring = form.ring
    lead_key = (0, tuple(int(j == i) for j in range(ring.nlambda)), int(i is None))
    lead, rest = _R0, {}
    for key, c in form.terms.items():
        if not (key[2] if i is None else key[1][i]):
            rest[key] = c
        elif key == lead_key:
            lead = c
        else:
            raise CoefficientError(
                "form is not linear in %s" % ("hbar" if i is None else "the expansion weight")
            )
    if i is None and lead == 0:
        raise CoefficientError("zero hbar coefficient: denominator factor degenerates")
    if i is not None and lead != 1 and lead != -1:
        raise CoefficientError(
            f"weight {ring.lambda_names[i]} must carry unit coefficient to expand at infinity"
        )
    return lead_key, lead, RingElem(ring, rest)


def expand_reciprocal_at_infinity(form: RingElem, lam, depth: int | None = None) -> RingElem:
    """Expansion of 1/form about lam = infinity.

    ``form`` must be linear with the named weight variable appearing with
    unit coefficient (either sign).  Returns
    sum_j (-1)^j s^(j+1) (form - s*lam)^j lam^(-j-1), truncated at ``depth``
    correction orders (default: as deep as the ring floor allows).
    """
    ring = form.ring
    i = lam if isinstance(lam, int) else ring.lambda_names.index(lam)
    _, s, rest = _split_linear(form, i)
    floor = ring.lambda_floor[i]
    if floor >= 0:
        raise CoefficientError("expansion at infinity requires a negative weight floor")
    jmax = -floor - 1
    if depth is not None:
        jmax = min(jmax, depth)
    # 1/(s lam) = s lam^-1 since s = +-1
    total, exact = _geometric_reciprocal(rest, ring.lam(i, -1) * s, jmax)
    return RingElem(ring, dict(total.terms), total.truncated or not exact or form.truncated)


def reciprocal_hbar_linear(form: RingElem) -> RingElem:
    """Expansion of 1/(X + m*hbar) in descending hbar powers, m a nonzero rational.

    Exact whenever X is nilpotent; otherwise exact down to the ring's hbar
    floor (the standard truncated-series semantics).
    """
    ring = form.ring
    _, m, rest = _split_linear(form)
    lead_inv = ring.hbar(-1) * (_R1 / m)
    total, exact = _geometric_reciprocal(rest, lead_inv, -ring.hbar_min - 1)
    return RingElem(ring, dict(total.terms), total.truncated or not exact or form.truncated)


def divide_linear(p: RingElem, form: RingElem, lam=None) -> RingElem:
    """p / form for a linear form with lead s*lam (s = +-1) when ``lam``
    names a weight, else m*hbar: with form = lead + rest, X = lead^-1 (p -
    rest X) is solved one grade (exponent of the lead's variable) at a time,
    from p's top grade down to the ring's floor, as in sparse division by a
    monomial lead (Monagan and Pearce, JSC 2011).  X is flagged truncated
    when a nonzero remainder is left below the floor, or when p or form is
    flagged or a product clips a term."""
    ring = p.ring
    i = None if lam is None else lam if isinstance(lam, int) else ring.lambda_names.index(lam)
    (_, dl, dh), lead, rest = _split_linear(form, i)
    floor = ring.hbar_min if i is None else ring.lambda_floor[i]
    lead_inv, rest = _R1 / lead, -rest
    levels = {}
    for key, c in p.terms.items():
        levels.setdefault(key[2] if i is None else key[1][i], {})[key] = c
    truncated = p.truncated or form.truncated
    out, x = {}, ring.zero()
    for g in range(max(levels, default=floor), floor - 1, -1):
        # grade g of p is lead * X_{g-1} + rest * X_g
        r = RingElem(ring, levels.get(g, {})) + rest * x
        truncated = truncated or r.truncated
        if g == floor:
            return RingElem(ring, out, truncated or not r.is_zero())
        x = RingElem(ring, {
            (b, tuple(e - d for e, d in zip(l, dl)), h - dh): c * lead_inv
            for (b, l, h), c in r.terms.items()
        })
        out.update(x.terms)


def elem_invert(e: RingElem) -> RingElem:
    """Inverse of ``rational*1 + nilpotent`` elements (used by series division)."""
    ring = e.ring
    unit_key = (0, (0,) * ring.nlambda, 0)
    r = e.terms.get(unit_key, _R0)
    if r == 0:
        raise CoefficientError("element has no invertible scalar part")
    rest = {k: c for k, c in e.terms.items() if k != unit_key}
    if any(b == 0 for (b, _, _) in rest):
        raise CoefficientError("non-nilpotent correction: element is not series-invertible")
    # the correction is nilpotent of order <= top_degree + 1, so the tail
    # always vanishes; a clipped input makes a clipped inverse
    total, _ = _geometric_reciprocal(RingElem(ring, rest), _R1 / r, ring.algebra.top_degree)
    return RingElem(ring, dict(total.terms), total.truncated or e.truncated)

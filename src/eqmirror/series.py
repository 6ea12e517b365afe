"""Truncated multivariate q-series over the exact coefficient tower.

A :class:`QSeries` stores terms keyed by ``(degrees, log_exponents)``: the
monomial ``prod_i q_i^{d_i} * prod_i (log q_i)^{L_i}`` with a
:class:`~eqmirror.exact_core.RingElem` coefficient.  Degrees are truncated to
a rectangular box; log exponents are never truncated (they stay small, they
come from mirror maps and their squares).

A series may be flagged ``prefactor=True``, meaning it represents

    exp(sum_i p_i log q_i / hbar) * (stored terms).

The flag changes nothing about ring arithmetic, but logarithmic derivatives
must account for the prefactor: ``theta_weighted`` implements
``hbar q_i d/dq_i`` acting through it, picking up ``p_i + d_i hbar`` on a
degree-d term.  Plain ``theta`` (``q_i d/dq_i`` with ``theta log q_i = 1``)
is only legal on unflagged series, and exp/log/invert/subs refuse flagged
input so the prefactor can never be silently duplicated or dropped.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
from dataclasses import dataclass

from .exact_core import (
    CoeffRing,
    CohomAlgebra,
    RingElem,
    elem_invert,
    rat,
)

__all__ = [
    "QSeries",
    "SeriesError",
    "SeriesRing",
    "polylog_series",
    "scalar_coeff_ring",
    "series_reversion",
]

_R0 = rat(0)
_R1 = rat(1)


class SeriesError(ValueError):
    """Raised on invalid series operations (shape, leading term, reversion)."""


def _accumulate(out: dict, key, c: RingElem):
    """Add ``c`` into ``out[key]``, dropping the key when the sum is zero.

    A zero ``c`` is skipped, so its truncation flag is not merged in.
    """
    if c.is_zero():
        return
    prev = out.get(key)
    prev = c if prev is None else prev + c
    if prev.is_zero():
        out.pop(key, None)
    else:
        out[key] = prev


def scalar_coeff_ring(hbar_min: int = 0, hbar_max: int = 0) -> CoeffRing:
    """Coefficient tower with trivial cohomology and no weight variables."""
    algebra = CohomAlgebra((), ((),), {(0, 0): ((0, _R1),)}, 0)
    return CoeffRing(algebra, (), (), hbar_min, hbar_max)


@dataclass(frozen=True)
class SeriesRing:
    """Variable names plus a rectangular degree box over a coefficient ring."""

    coeff: CoeffRing
    variables: tuple
    box: tuple

    def __post_init__(self):
        if len(self.variables) != len(self.box):
            raise SeriesError("one degree bound per variable is required")
        if any(b < 0 for b in self.box):
            raise SeriesError("degree bounds must be non-negative")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero_key(self):
        z = (0,) * self.nvars
        return (z, z)

    def zero(self) -> "QSeries":
        return QSeries(self, {})

    def one(self) -> "QSeries":
        return QSeries(self, {self.zero_key(): self.coeff.one()})

    def monomial(self, degs, logs=None, coeff=1) -> "QSeries":
        degs = tuple(degs)
        logs = (0,) * self.nvars if logs is None else tuple(logs)
        if not isinstance(coeff, RingElem):
            coeff = self.coeff.scalar(coeff)
        return QSeries(self, {(degs, logs): coeff})

    def variable(self, i) -> "QSeries":
        if not isinstance(i, int):
            i = self.variables.index(i)
        degs = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(degs)

    def log_variable(self, i) -> "QSeries":
        if not isinstance(i, int):
            i = self.variables.index(i)
        logs = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial((0,) * self.nvars, logs)

    def from_rational_terms(self, terms: dict) -> "QSeries":
        """Build a series from ``{degs: rational}`` (log-free scalar data)."""
        data = {}
        z = (0,) * self.nvars
        for degs, c in terms.items():
            data[(tuple(degs), z)] = self.coeff.scalar(c)
        return QSeries(self, data)

    def degree_keys(self):
        """All degree tuples inside the box, in graded order."""
        keys = itertools.product(*(range(b + 1) for b in self.box))
        return sorted(keys, key=lambda d: (sum(d), d))


class QSeries:
    """Immutable truncated series; see module docstring for key semantics."""

    __slots__ = ("sring", "data", "prefactor")

    def __init__(self, sring: SeriesRing, data: dict, prefactor: bool = False):
        box = sring.box
        kept = {}
        for (degs, logs), c in data.items():
            if not isinstance(c, RingElem):
                c = sring.coeff.scalar(c)
            elif c.ring is not sring.coeff:
                c = sring.coeff.convert(c)
            if c.is_zero():
                continue
            if any(d > b for d, b in zip(degs, box)):
                continue
            kept[(degs, logs)] = c
        object.__setattr__(self, "sring", sring)
        object.__setattr__(self, "data", kept)
        object.__setattr__(self, "prefactor", prefactor)

    def __setattr__(self, *args):
        raise AttributeError("QSeries is immutable")

    # -- basic protocol ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.data

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.sring == other.sring
            and self.prefactor == other.prefactor
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("QSeries is not hashable")

    def __repr__(self) -> str:
        if not self.data:
            return "0"
        names = self.sring.variables
        bits = []
        for (degs, logs), c in sorted(self.data.items(), key=lambda kv: (sum(kv[0][0]), kv[0])):
            factors = [f"({c!r})"]
            for n, d in zip(names, degs):
                if d == 1:
                    factors.append(n)
                elif d > 1:
                    factors.append(f"{n}^{d}")
            for n, e in zip(names, logs):
                if e == 1:
                    factors.append(f"log({n})")
                elif e > 1:
                    factors.append(f"log({n})^{e}")
            bits.append("*".join(factors))
        body = " + ".join(bits)
        return f"prefactor*[{body}]" if self.prefactor else body

    def with_prefactor(self, flag: bool) -> "QSeries":
        return QSeries(self.sring, self.data, flag)

    # -- arithmetic -----------------------------------------------------------

    def _compat(self, other: "QSeries"):
        if self.sring != other.sring:
            raise SeriesError("mixed series rings in arithmetic")

    def __add__(self, other):
        if isinstance(other, numbers.Rational):
            other = self.sring.monomial((0,) * self.sring.nvars, coeff=other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._compat(other)
        if self.prefactor != other.prefactor and self.data and other.data:
            raise SeriesError("cannot add prefactor and plain series")
        out = dict(self.data)
        for k, c in other.data.items():
            _accumulate(out, k, c)
        return QSeries(self.sring, out, self.prefactor or other.prefactor)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.sring, {k: -c for k, c in self.data.items()}, self.prefactor)

    def __sub__(self, other):
        if isinstance(other, numbers.Rational):
            other = self.sring.monomial((0,) * self.sring.nvars, coeff=other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (numbers.Rational, RingElem)):
            return self.map_coefficients(lambda c: c * other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._compat(other)
        if self.prefactor and other.prefactor:
            raise SeriesError("product would duplicate the series prefactor")
        box = self.sring.box
        out = {}
        for (d1, l1), c1 in self.data.items():
            for (d2, l2), c2 in other.data.items():
                degs = tuple(a + b for a, b in zip(d1, d2))
                if any(d > b for d, b in zip(degs, box)):
                    continue
                logs = tuple(a + b for a, b in zip(l1, l2))
                key = (degs, logs)
                c = c1 * c2
                nc = out.get(key)
                nc = c if nc is None else nc + c
                if nc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = nc
        return QSeries(self.sring, out, self.prefactor or other.prefactor)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SeriesError("negative series powers go through invert()")
        result = self.sring.one()
        for _ in range(n):
            result = result * self
        return result

    def map_coefficients(self, f) -> "QSeries":
        out = {}
        for k, c in self.data.items():
            nc = f(c)
            if not nc.is_zero():
                out[k] = nc
        return QSeries(self.sring, out, self.prefactor)

    # -- access ----------------------------------------------------------------

    def coefficient(self, degs, logs=None) -> RingElem:
        logs = (0,) * self.sring.nvars if logs is None else tuple(logs)
        return self.data.get((tuple(degs), logs), self.sring.coeff.zero())

    def constant_term(self) -> RingElem:
        return self.coefficient((0,) * self.sring.nvars)

    def has_logs(self) -> bool:
        return any(any(logs) for (_, logs) in self.data)

    def rational_items(self):
        """Iterate ``((degs, logs), rational)``; fails on non-scalar values."""
        for k, c in sorted(self.data.items()):
            yield k, c.scalar_value()

    def truncated(self) -> bool:
        return any(c.truncated for c in self.data.values())

    # -- hbar structure ----------------------------------------------------------

    def hbar_slice(self, h: int) -> "QSeries":
        """Series of hbar^h coefficients (the prefactor flag is dropped)."""
        out = {}
        for k, c in self.data.items():
            sub = c.hbar_coefficient(h)
            if not sub.is_zero():
                out[k] = sub
        return QSeries(self.sring, out, False)

    def hbar_range(self):
        lo, hi = 0, 0
        for c in self.data.values():
            a, b = c.hbar_range()
            lo, hi = min(lo, a), max(hi, b)
        return lo, hi

    # -- logarithmic derivatives ---------------------------------------------

    def theta(self, i: int) -> "QSeries":
        """q_i d/dq_i with theta(log q_i) = 1; plain series only."""
        if self.prefactor:
            raise SeriesError("plain theta on a prefactor series loses terms")
        out = {}

        for (degs, logs), c in self.data.items():
            if degs[i]:
                _accumulate(out, (degs, logs), c * rat(degs[i]))
            if logs[i]:
                lowered = tuple(e - (1 if j == i else 0) for j, e in enumerate(logs))
                _accumulate(out, (degs, lowered), c * rat(logs[i]))
        return QSeries(self.sring, out)

    def theta_weighted(self, i: int) -> "QSeries":
        """hbar q_i d/dq_i through the prefactor: (p_i + d_i hbar) on degree d."""
        if not self.prefactor:
            raise SeriesError("weighted theta requires a prefactor series")
        ring = self.sring.coeff
        gens = ring.algebra.generators
        p_i = ring.p(gens[i])
        hb = ring.hbar()
        out = {}

        for (degs, logs), c in self.data.items():
            _accumulate(out, (degs, logs), c * (p_i + hb * rat(degs[i])))
            if logs[i]:
                lowered = tuple(e - (1 if j == i else 0) for j, e in enumerate(logs))
                _accumulate(out, (degs, lowered), c * hb * rat(logs[i]))
        return QSeries(self.sring, out, True)

    # -- analytic operations ----------------------------------------------------

    def _require_plain(self, op: str):
        if self.prefactor:
            raise SeriesError(f"{op} is undefined for prefactor series")

    def exp(self) -> "QSeries":
        self._require_plain("exp")
        z = (0,) * self.sring.nvars
        if any(degs == z for (degs, _) in self.data):
            raise SeriesError("exp requires vanishing constant term")
        total = self.sring.one()
        term = self.sring.one()
        for n in range(1, sum(self.sring.box) + 1):
            term = term * self * rat(1, n)
            if term.is_zero():
                break
            total = total + term
        return total

    def log(self) -> "QSeries":
        self._require_plain("log")
        z = (0,) * self.sring.nvars
        lead = self.data.get((z, z))
        if lead is None or lead != self.sring.coeff.one():
            raise SeriesError("log requires constant term exactly 1")
        if any(degs == z and logs != z for (degs, logs) in self.data):
            raise SeriesError("log requires a log-free unit constant term")
        v = self - self.sring.one()
        total = self.sring.zero()
        term = self.sring.one()
        for n in range(1, sum(self.sring.box) + 1):
            term = term * v
            if term.is_zero():
                break
            total = total + term * rat((-1) ** (n + 1), n)
        return total

    def invert(self) -> "QSeries":
        self._require_plain("invert")
        z = (0,) * self.sring.nvars
        lead = self.data.get((z, z))
        if lead is None:
            raise SeriesError("inverse requires an invertible constant term")
        if any(degs == z and logs != z for (degs, logs) in self.data):
            raise SeriesError("inverse requires a log-free constant term")
        lead_inv = elem_invert(lead)
        v = (self - QSeries(self.sring, {(z, z): lead})) * lead_inv
        total = self.sring.one()
        term = self.sring.one()
        for n in range(1, sum(self.sring.box) + 1):
            term = term * v * rat(-1)
            if term.is_zero():
                break
            total = total + term
        return total * lead_inv

    # -- substitution -------------------------------------------------------------

    def subs(self, images) -> "QSeries":
        """Substitute q_i -> images[i], each of the shape x_i * (1 + O(x)).

        Log-slot keys transform as log q_i -> log x_i + log U_i where
        U_i = images[i] / x_i.  The result lives in the ring of the images.
        The images must have rational coefficients.  They are read once as
        ``{degs: rat}``, and a term c q^d becomes c M_d with M_d the rational
        image monomial from :func:`_power_table`, the table the reversion
        walks.  A rational factor cannot leave the coefficient windows, so no
        term is clipped.  A coefficient flagged ``truncated`` in any image
        flags every coefficient of the result, as in :func:`series_reversion`.
        """
        self._require_plain("substitution")
        images = tuple(images)
        if len(images) != self.sring.nvars:
            raise SeriesError("one image per variable is required")
        target = images[0].sring
        nv = target.nvars
        if nv != self.sring.nvars:
            raise SeriesError("substitution must preserve the variable count")

        units = _units(nv)
        rows = []
        flagged = False
        for i, (img, e) in enumerate(zip(images, units)):
            if img.sring != target or img.prefactor or img.has_logs():
                raise SeriesError("images must be plain log-free series in one ring")
            row, clipped = _rational_terms(img, "images")
            if any(d[i] < 1 for d in row):
                raise SeriesError(
                    f"image of variable {self.sring.variables[i]} is not divisible by it"
                )
            if row.get(e) != 1:
                raise SeriesError("images must have unit leading coefficient")
            rows.append(row)
            flagged = flagged or clipped

        @functools.cache
        def log_power(i, n):
            # (log q_i)^n -> (log x_i + log U_i)^n
            unit = target.from_rational_terms(
                {tuple(map(operator.sub, d, units[i])): c for d, c in rows[i].items()}
            )
            return (target.log_variable(i) + unit.log()) ** n

        ring = target.coeff
        z = (0,) * nv
        table = _power_table({degs for degs, _ in self.data}, rows, target.box, sum(target.box))
        out = {}
        for (degs, logs), c in self.data.items():
            c = ring.convert(c)
            term = {(e, z): c * m for e, m in table[degs].items()}
            for i, n in enumerate(logs):
                if n:
                    term = (QSeries(target, term) * log_power(i, n)).data
            for key, v in term.items():
                _accumulate(out, key, v)
        if flagged:
            out = {key: RingElem(ring, v.terms, True) for key, v in out.items()}
        return QSeries(target, out)


def _rational_terms(series, what):
    """The ``{degs: rat}`` terms of a log-free series and whether any of its
    coefficients is flagged ``truncated``; a coefficient that is not a plain
    rational raises :class:`SeriesError`."""
    terms = {}
    flagged = False
    for (degs, _), c in series.data.items():
        if not c.is_scalar():
            raise SeriesError(
                f"{what} must have rational coefficients, got {c!r} at degree {degs}"
            )
        terms[degs] = c.scalar_value()
        flagged = flagged or c.truncated
    return terms, flagged


def _power_table(degrees, images, box, cut) -> dict:
    """Image monomials M_d = prod_i images[i]^d_i for every d in ``degrees``,
    over ``{degs: rat}`` series inside ``box`` through total degree ``cut``.

    M_0 = 1 and M_d = M_{d - e_i} images[i] with i the first nonzero
    position of d: one product per degree in ``degrees`` or on the way down
    from one to 0.
    """
    z = (0,) * len(box)
    table = {z: {z: _R1}}

    def power(d):
        m = table.get(d)
        if m is None:
            i = next(j for j, e in enumerate(d) if e)
            lower = power(d[:i] + (d[i] - 1,) + d[i + 1 :])
            m = table[d] = _mul_cut(lower, images[i], cut, box)
        return m

    for d in degrees:
        power(d)
    return table


# ---------------------------------------------------------------------------
# reversion of mirror-type coordinate changes
# ---------------------------------------------------------------------------


def _mul_cut(a: dict, b: dict, cut: int, box) -> dict:
    """Product of two ``{degs: rat}`` series inside ``box`` through total
    degree ``cut``."""
    by_total = sorted((sum(d), d, c) for d, c in b.items())
    out = {}
    for d1, c1 in a.items():
        room = cut - sum(d1)
        for s2, d2, c2 in by_total:
            if s2 > room:
                break
            d = tuple(map(operator.add, d1, d2))
            if any(map(operator.gt, d, box)):
                continue
            out[d] = out.get(d, _R0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def _compose(terms: dict, table: dict) -> dict:
    """``sum_d terms[d] * table[d]`` over ``{degs: rat}`` series."""
    out = {}
    for d, c in terms.items():
        for e, m in table[d].items():
            out[e] = out.get(e, _R0) + c * m
    return {e: c for e, c in out.items() if c}


def _exp_graded(a: dict, keys) -> dict:
    """exp(a) on ``keys`` for a ``{degs: rat}`` series without constant term.

    ``keys`` run in graded order and hold every degree below each of them.
    With |d| the total degree, the Euler operator gives the recurrence
    E_0 = 1, E_d = (1/|d|) sum_{0 < b <= d} |b| a_b E_{d-b}.
    """
    weighted = [(b, sum(b) * c) for b, c in a.items()]
    out = {}
    for d in keys:
        total = sum(d)
        if not total:
            out[d] = _R1
            continue
        acc = _R0
        for b, wc in weighted:
            e = out.get(tuple(map(operator.sub, d, b)))
            if e is not None:
                acc += wc * e
        if acc:
            out[d] = acc / total
    return out


def _units(nv):
    return [tuple(1 if j == i else 0 for j in range(nv)) for i in range(nv)]


def _coordinates(exponents, box, cut):
    """x_i exp(exponents[i]) for each i, inside ``box`` through total degree
    ``cut``, over ``{degs: rat}`` series."""
    out = []
    for e, a in zip(_units(len(box)), exponents):
        keys = itertools.product(*(range(b - x + 1) for b, x in zip(box, e)))
        ex = _exp_graded(a, sorted((d for d in keys if sum(d) < cut), key=sum))
        out.append({tuple(map(operator.add, d, e)): c for d, c in ex.items()})
    return out


def _substitute(series, images, box, cut):
    """``s(images)`` for each ``{degs: rat}`` series s, through one shared
    table of image monomials."""
    table = _power_table(set().union(*series), images, box, cut)
    return [_compose(s, table) for s in series]


def _round_trip_holds(current, corrections, box) -> bool:
    """Whether q_i(x) = ``current[i]`` composed with the forward map
    x_i(q) = q_i exp(g_i(q)) gives back q_i inside the box.

    Composing in this direction only raises degrees, so the identity is
    exact in the rectangular box (the backward composition is not:
    log(q_i(x)/x_i) at top degree would need coefficients beyond it).
    """
    full = sum(box)
    back = _substitute(current, _coordinates(corrections, box, full), box, full)
    return all(b == {e: _R1} for b, e in zip(back, _units(len(box))))


def series_reversion(gs, sring: SeriesRing):
    """Solve log q_i + g_i(q) = log x_i for q_i(x) = x_i exp(-g_i(q(x))).

    ``gs`` are the correction series in ``sring``: no constant term, no logs,
    and rational coefficients only; anything else raises
    :class:`SeriesError`.  They are read once as ``{degs: rat}`` and the
    whole iteration runs on that form.  Returns the tuple of inverted
    coordinates in ``sring`` (whose variables are read as the flat
    coordinates x).  The round trip is verified exactly inside the degree
    box and a failure raises :class:`SeriesError`.

    The fixed point q <- x exp(-g(q)) is iterated sum(box) - 1 times.  The
    start q = x is exact through total degree 1, because g has no constant
    term.  If q is exact through total degree k, an error of total degree
    >= k + 1 in q moves g(q) only at total degree >= k + 1 (again because g
    has no constant term), so the next x exp(-g(q)) is exact through total
    degree k + 1.  After pass k, q is therefore exact through total degree
    k + 1, and every degree in the box is reached after sum(box) - 1 passes.
    So pass k cuts everything at total degree k + 1: the corrections, every
    product and its result.

    A pass substitutes q into all n corrections through one table of image
    monomials, M_0 = 1 and M_d = M_{d - e_i} q_i (:func:`_power_table`), and
    takes each exponential by the graded recurrence of :func:`_exp_graded`.
    A coefficient flagged ``truncated`` in any correction flags every
    coefficient of the result.
    """
    gs = tuple(gs)
    nv = sring.nvars
    if len(gs) != nv:
        raise SeriesError("one correction series per variable is required")
    box = sring.box
    if any(b < 1 for b in box):
        raise SeriesError("reversion needs every degree bound >= 1, got %r" % (box,))
    z = (0,) * nv
    corrections = []
    flagged = False
    for g in gs:
        if g.sring != sring:
            raise SeriesError("corrections must live in the reversion's series ring")
        if g.prefactor or g.has_logs():
            raise SeriesError("corrections must be plain log-free series")
        if (z, z) in g.data:
            raise SeriesError("corrections must have no constant term")
        terms, clipped = _rational_terms(g, "corrections")
        corrections.append(terms)
        flagged = flagged or clipped

    negated = [{d: -c for d, c in g.items()} for g in corrections]
    current = [{e: _R1} for e in _units(nv)]
    for k in range(1, sum(box)):
        cut = k + 1
        cut_gs = [{d: c for d, c in g.items() if sum(d) <= cut} for g in negated]
        current = _coordinates(_substitute(cut_gs, current, box, cut), box, cut)
    if not _round_trip_holds(current, corrections, box):
        raise SeriesError("coordinate reversion failed its round-trip check")

    ring = sring.coeff
    zl = (0,) * ring.nlambda
    return tuple(
        QSeries(sring, {(d, z): RingElem(ring, {(0, zl, 0): c}, flagged) for d, c in q.items()})
        for q in current
    )


def polylog_series(sring: SeriesRing, weight: int, beta, coeff=1) -> QSeries:
    """Truncation of ``coeff * Li_weight(q^beta)`` inside the ring's box."""
    beta = tuple(beta)
    if len(beta) != sring.nvars or all(b == 0 for b in beta) or any(b < 0 for b in beta):
        raise SeriesError("polylog direction must be a nonzero non-negative tuple")
    bound = min(
        (box // b for box, b in zip(sring.box, beta) if b),
        default=0,
    )
    terms = {}
    c = rat(coeff)
    for m in range(1, bound + 1):
        terms[tuple(m * b for b in beta)] = c / rat(m) ** weight
    return sring.from_rational_terms(terms)

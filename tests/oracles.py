"""Independent reference implementations used to cross-check the package.

Everything here is deliberately primitive: dense coefficient lists over
fractions.Fraction, direct combinatorial formulas, no imports from the
package under test.  Agreement between these and the package is evidence
that neither side inherited the other's bugs.
"""

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

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

"""The graded polynomial ring on exponent tuples, kept as a test reference.

grrcheck.poly.GradedPolynomial stores its terms under packed integer keys:
a product adds keys, a truncation compares them, the canonical text sorts
them.  The functions here do the same ring operations on maps
{exponent tuple: coefficient} with nothing packed: degrees are summed from
the weights, products add tuples, the text order is (degree, tuple) order.
Every coefficient is normalised as the package stores it, an int when
integral and a Fraction otherwise, so the tests can compare terms and
coefficient types with the package's.

An alphabet is a sequence of (name, weight) pairs; a term map and a bound
make a polynomial.
"""

from __future__ import annotations

from fractions import Fraction


def exact(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def degree(alphabet, mono):
    return sum(e * w for (_, w), e in zip(alphabet, mono))


def clean(alphabet, bound, terms):
    """The stored form of arbitrary terms: nonzero, in the bound, normalised."""
    out = {}
    for mono, c in terms.items():
        if c and degree(alphabet, mono) <= bound:
            out[tuple(mono)] = exact(c)
    return out


def linear(alphabet, bound, p, q, sign):
    """p + sign * q under the bound."""
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + sign * c
    return clean(alphabet, bound, out)


def product(alphabet, bound, p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return clean(alphabet, bound, out)


def scale(terms, r):
    return {mono: exact(c * r) for mono, c in terms.items() if c * r}


def graded_part(alphabet, terms, m):
    return {mono: c for mono, c in terms.items() if degree(alphabet, mono) == m}


def with_bound(alphabet, terms, bound):
    return clean(alphabet, bound, terms)


def embed(alphabet, target, terms):
    """The terms over a target alphabet that holds every name (same weights)."""
    names = [name for name, _ in target]
    out = {}
    for mono, c in terms.items():
        new = [0] * len(target)
        for (name, _), e in zip(alphabet, mono):
            new[names.index(name)] = e
        out[tuple(new)] = c
    return out


def times_one_minus(alphabet, bound, terms, factors):
    """terms * prod (1 - sum_{v in S} v)^e, e = 1 or -1, as full products
    with 1 - s or with the geometric series sum_{j <= bound} s^j."""
    names = [name for name, _ in alphabet]
    one = (0,) * len(alphabet)
    for subset, e in factors:
        s = {}
        for name in subset:
            mono = [0] * len(alphabet)
            mono[names.index(name)] = 1
            s[tuple(mono)] = s.get(tuple(mono), 0) + 1
        if e == 1:
            factor = linear(alphabet, bound, {one: 1}, s, -1)
        else:
            factor, power = {one: 1}, {one: 1}
            for _ in range(bound):
                power = product(alphabet, bound, power, s)
                factor = linear(alphabet, bound, factor, power, 1)
        terms = product(alphabet, bound, terms, factor)
    return terms


def serialize(alphabet, terms):
    """One line per term, "<num>/<den>" and " <var>^<exp>" per nonzero
    exponent, in (degree, exponent tuple) order."""
    lines = []
    for mono in sorted(terms, key=lambda m: (degree(alphabet, m), m)):
        c = Fraction(terms[mono])
        factors = "".join(f" {name}^{e}" for (name, _), e in zip(alphabet, mono) if e)
        lines.append(f"{c.numerator}/{c.denominator}{factors}")
    return "\n".join(lines)

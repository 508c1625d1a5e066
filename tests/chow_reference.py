"""Chow classes from raw terms, and the Chow ring on exponent tuples, kept as
test references.

grrcheck.geometry.ChowClass stores {packed key: coefficient} over the
tower's alphabet and takes over terms already in normal form without zeros:
every class the package builds comes from an operation that keeps them so.
Tests that start from arbitrary exponents and coefficients reduce them here
first, with the tower's own Chow rules (chow_class), and tests that read
exponents read a class through chow_terms.

The functions below the two views do the ring's work on maps
{exponent tuple: coefficient} with nothing packed and nothing memoised: a
product rewrites the raw monomial ma + mb of every pair (nothing above the
dimension), a graded part sums exponents, a pushforward keeps the monomials
whose top exponent is the top rank and drops that exponent, and the text
form is the long-way text of text_reference.  Every coefficient is
normalised as the package stores it, an int when integral and a Fraction
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping

from grrcheck.geometry import ChowClass, Tower
from grrcheck.poly import Monomial, Scalar

from text_reference import serialize_reference


def chow_class(tower: Tower, raw: Mapping[Monomial, Scalar]) -> ChowClass:
    """The class of raw terms: any nonnegative exponents, any coefficients,
    zeros among them."""
    keys = tower.alphabet.keys
    normal = tower._normal_form(raw, tower._chow_rules)
    return ChowClass(tower, {keys[m]: c for m, c in normal.items()})


def chow_terms(alpha: ChowClass) -> dict[Monomial, Scalar]:
    """The class's terms keyed by exponent tuples."""
    monomial = alpha.tower.alphabet.monomial
    return {monomial(k): c for k, c in alpha.terms.items()}


# -- the Chow ring on exponent tuples -------------------------------------


def _clean(terms: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    out = {}
    for mono, c in terms.items():
        if c:
            c = Fraction(c)
            out[mono] = c.numerator if c.denominator == 1 else c
    return out


def linear(a, b, sign: int) -> dict[Monomial, Scalar]:
    """a + sign * b."""
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
    return _clean(out)


def scale(a, r: Scalar) -> dict[Monomial, Scalar]:
    return _clean({mono: c * r for mono, c in a.items()})


def multiply(tower: Tower, a, b) -> dict[Monomial, Scalar]:
    """The product of two normal-form term maps: each pair's raw monomial
    rewritten by the tower's Chow rules, the pairs above the dimension
    dropped unread."""
    out: dict[Monomial, Scalar] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            raw = tuple(map(add, ma, mb))
            if sum(raw) > tower.dim:
                continue
            for mono, t in tower._normal_form({raw: 1}, tower._chow_rules).items():
                out[mono] = out.get(mono, 0) + ca * cb * t
    return _clean(out)


def graded_part(a, m: int) -> dict[Monomial, Scalar]:
    return {mono: c for mono, c in a.items() if sum(mono) == m}


def pushforward(tower: Tower, a, n_collapse: int) -> tuple[Tower, dict[Monomial, Scalar]]:
    """Collapse the top n levels: the base tower and the pushed terms."""
    for _ in range(n_collapse):
        k = tower.n_levels - 1
        a = {mono[:k]: c for mono, c in a.items() if mono[k] == tower.ranks[k]}
        tower = tower.base
    return tower, a


def degree(tower: Tower, a) -> Scalar:
    """The pushforward to the point."""
    return pushforward(tower, a, tower.n_levels)[1].get((), 0)


def text(tower: Tower, a) -> str:
    return serialize_reference(tower.alphabet, a)

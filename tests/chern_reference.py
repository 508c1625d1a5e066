"""The factor-by-factor total Chern class, kept as a test reference.

grrcheck.geometry.KClass.total_chern takes each factor (1 + D)^m into the
running product P as sum_i binom(m, i) P*D^i, each P*D^i the previous one
times the divisor.  The route here builds each factor as a class of its own,
sum_{i<=dim} binom(m, i) D^i, and multiplies the running product by it, one
product of two full classes per line symbol.  Both routes share the binomial
expansion and the tower's Chow product, but not the order of the products, so
the tests compare the package against this one.
"""

from __future__ import annotations

from grrcheck.geometry import ChowClass, KClass


def factor_total_chern(f: KClass) -> ChowClass:
    """prod (1 + D)^m over the line symbols of f, each factor expanded as
    sum_{i<=dim} binom(m, i) D^i (exact for every sign of m, as D is
    nilpotent) and multiplied into the product whole."""
    tower = f.tower
    unit = tower.unit_chow()
    total = unit
    for vec, mult in sorted(f.line_terms.items()):
        d = tower.divisor_chow(vec)
        factor, power, binom = unit, unit, 1
        for i in range(1, tower.dim + 1):
            binom = binom * (mult - i + 1) // i  # exact: binom(m, i)
            if not binom:
                break
            power = power * d
            if power.is_zero():
                break
            factor = factor + power.scale(binom)
        total = total * factor
    return total

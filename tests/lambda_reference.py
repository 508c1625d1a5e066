"""Exterior and symmetric powers by enumeration, and the K-pushforward by an
outward recurrence, kept as test references.

grrcheck.geometry reads wedge^n and Sym^n of a class as the t^n coefficient
of prod_L (1 + s L t)^(s m_L), and pi_* l^a in closed form from Sym^a E or
from det(E)^{-1} Sym^(-a-r-1) E^*.  The routes here share neither: the
powers of an effective class count the n-subsets or n-multisets of its
symbols, and the pushforward table starts at those symmetric powers for
0 <= a <= r and grows one exponent at a time through the tower's K relation.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from grrcheck.geometry import DivisorVector, KClass, Tower


def multiset_power(f: KClass, n: int, kind: str) -> dict[DivisorVector, int]:
    """wedge^n (kind "wedge": the n-subsets of the symbols, each symbol
    repeated by its multiplicity) or Sym^n (kind "sym": the n-multisets) of
    an effective class."""
    assert all(c > 0 for c in f.line_terms.values()), "effective classes only"
    symbols = [v for v, c in sorted(f.line_terms.items()) for _ in range(c)]
    choose = combinations if kind == "wedge" else combinations_with_replacement
    out: dict[DivisorVector, int] = {}
    for picked in choose(symbols, n):
        key = tuple(map(sum, zip(*picked))) if picked else (0,) * f.tower.n_levels
        out[key] = out.get(key, 0) + 1
    return out


def outward_pushed_powers(tower: Tower, lo: int, hi: int) -> dict[int, dict[DivisorVector, int]]:
    """pi_* l^a on the base for lo <= a <= hi (lo <= 0, hi >= r), l the top
    level's line class.  The K rule that rewrites l^b (above r, or below 0)
    into terms c L l^(b + step) nearer the range gives pi_* l^b = sum c L
    pi_* l^(b + step) by the projection formula."""
    r = tower.ranks[-1]
    top = tower.levels[-1]
    bundle = KClass(tower.base, {vec: top.count(vec) for vec in top})
    table = {a: multiset_power(bundle, a, "sym") for a in range(r + 1)}
    above, below = tower._k_rules[-1]
    for rule, todo in ((above, range(r + 1, hi + 1)), (below, range(-1, lo - 1, -1))):
        for b in todo:
            out: dict[DivisorVector, int] = {}
            for offset, c in rule.items():
                for vec, t in table[b + offset[-1]].items():
                    key = tuple(x + y for x, y in zip(vec, offset[:-1]))
                    out[key] = out.get(key, 0) + c * t
            table[b] = {vec: c for vec, c in out.items() if c}
    return table

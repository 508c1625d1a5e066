"""Exterior and symmetric powers by enumeration, the K relation of every
level built eagerly, and the K-pushforward by an outward recurrence, kept as
test references.

grrcheck.geometry reads wedge^n and Sym^n of a class as the t^n coefficient
of prod_L (1 + s L t)^(s m_L), pi_* l^a in closed form from Sym^a E or from
det(E)^{-1} Sym^(-a-r-1) E^*, and det(E) from the sum of the summands; it
builds a level's K rules on the first K normal form.  The routes here share
none of that: the powers of an effective class count the n-subsets or
n-multisets of its symbols, the K rules of every level are built from those
wedge powers, with det(E) = wedge^(r+1) E, and the pushforward table starts
at the symmetric powers for 0 <= a <= r and grows one exponent at a time
through the tower's K relation.

The K-group of a tower has no product in grrcheck.geometry; line_product,
the product of two classes' line terms in the group ring of line symbols,
is the reference for the identities that need one.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from grrcheck.geometry import DivisorVector, KClass, Tower


def line_product(a: dict, b: dict) -> dict[DivisorVector, int]:
    """The product of two classes' line terms: symbols add, multiplicities
    multiply, cancelled terms are dropped."""
    out: dict[DivisorVector, int] = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb))
            out[v] = out.get(v, 0) + ca * cb
    return {v: c for v, c in out.items() if c}


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


def eager_k_rules(tower: Tower) -> list[tuple[dict, dict]]:
    """The (above, below) K rules of every level, padded to the tower's
    levels, each from wedge^j E enumerated for j <= r + 1:
    l^(r+1) -> sum_{j>=1} (-1)^(j+1) wedge^j E l^(r+1-j) and
    l^(-1) -> sum_{j<=r} (-1)^(r+j) wedge^j E det(E)^(-1) l^(r-j).  A rule
    maps the exponent offset of each rewritten term to its coefficient."""
    rules = []
    for k, top in enumerate(tower.levels):
        r, pad = len(top) - 1, (0,) * (tower.n_levels - k - 1)
        bundle = KClass(tower.prefix(k), {vec: top.count(vec) for vec in top})
        wedges = [multiset_power(bundle, j, "wedge") for j in range(r + 2)]
        (det,) = wedges[r + 1]
        above = {
            v + (-j,) + pad: (-1) ** (j + 1) * c
            for j in range(1, r + 2)
            for v, c in wedges[j].items()
        }
        below = {
            tuple(x - y for x, y in zip(v, det)) + (r + 1 - j,) + pad: (-1) ** (r + j) * c
            for j in range(r + 1)
            for v, c in wedges[j].items()
        }
        rules.append((above, below))
    return rules


def outward_pushed_powers(tower: Tower, lo: int, hi: int) -> dict[int, dict[DivisorVector, int]]:
    """pi_* l^a on the base for lo <= a <= hi (lo <= 0, hi >= r), l the top
    level's line class.  The K rule that rewrites l^b (above r, or below 0)
    into terms c L l^(b + step) nearer the range gives pi_* l^b = sum c L
    pi_* l^(b + step) by the projection formula."""
    r = tower.ranks[-1]
    top = tower.levels[-1]
    bundle = KClass(tower.base, {vec: top.count(vec) for vec in top})
    table = {a: multiset_power(bundle, a, "sym") for a in range(r + 1)}
    above, below = tower._k_rules()[-1]
    for rule, todo in ((above, range(r + 1, hi + 1)), (below, range(-1, lo - 1, -1))):
        for b in todo:
            out: dict[DivisorVector, int] = {}
            for offset, c in rule.items():
                for vec, t in table[b + offset[-1]].items():
                    key = tuple(x + y for x, y in zip(vec, offset[:-1]))
                    out[key] = out.get(key, 0) + c * t
            table[b] = {vec: c for vec, c in out.items() if c}
    return table

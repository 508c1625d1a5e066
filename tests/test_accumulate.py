"""The one accumulation kernel, poly.accumulate, and every class operation
that goes through it, against a test-side dict-of-Fraction reference.

Seeded inputs mix ints, Fractions and Fractions that add up to integers, and
the second operand of each sum cancels part of the first exactly.  Every
result is checked term by term, and every stored value must be an int
exactly when it is integral (KClass values are always ints)."""

import random
from fractions import Fraction
from itertools import product

from grrcheck.geometry import (
    ChowClass,
    KClass,
    Tower,
    pushforward_chow,
    pushforward_k,
)
from grrcheck.poly import Alphabet, GradedPolynomial, accumulate

TOWERS = [
    Tower([[()] * 3]),
    Tower([[(), ()], [(0,), (1,)]]),
    Tower([[(), (), ()], [(0,), (1,)]]),
    Tower([[(), ()], [(0,), (-1,), (2,)], [(0, 0), (1, -1)]]),
]


# -- the reference ------------------------------------------------------------


def ref_add(*parts):
    """sum c * terms (shifted) over parts (terms, c, shift), in Fractions,
    zero sums dropped."""
    out = {}
    for terms, c, shift in parts:
        for m, t in terms.items():
            if shift is not None:
                m = tuple(x + y for x, y in zip(m, shift))
            out[m] = out.get(m, Fraction(0)) + Fraction(c) * t
    return {m: v for m, v in out.items() if v}


def ref_mul(a, b):
    return ref_add(*((b, ca, ma) for ma, ca in a.items()))


def ref_normal_form(tower, terms, rules, levels=None):
    """Rewrite with the tower's rule data, one bad term at a time."""
    work = ref_add((terms, 1, None))
    for k in reversed(range(tower.n_levels)) if levels is None else levels:
        r = tower.ranks[k]
        above, below = rules[k]
        while True:
            bad = next((m for m in work if not 0 <= m[k] <= r), None)
            if bad is None:
                break
            c = work.pop(bad)
            work = ref_add((work, 1, None), (above if bad[k] > r else below, c, bad))
    return work


def assert_stored(terms, expected):
    assert terms == expected
    for c in terms.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction), c


# -- random inputs --------------------------------------------------------------


def coefficient(rng):
    return rng.choice(
        [rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(6, 3)]
    )


def pair(rng, keys, n):
    """Two term maps over the given keys: the second cancels some terms of
    the first exactly and tops up others to an integer."""
    a = {m: coefficient(rng) for m in rng.sample(keys, min(n, len(keys)))}
    b = {}
    for m, c in a.items():
        roll = rng.random()
        if roll < 0.3:
            b[m] = -c
        elif roll < 0.7:
            b[m] = Fraction(c).numerator + 1 - Fraction(c)  # a + b is an integer
    for m in rng.sample(keys, min(2, len(keys))):
        b.setdefault(m, coefficient(rng))
    return {m: c for m, c in a.items() if c}, {m: c for m, c in b.items() if c}


def basis(tower):
    return [tuple(e) for e in product(*(range(r + 1) for r in tower.ranks))]


def raw_monomials(tower):
    # exponents above the ranks, so the constructor has to rewrite
    return [tuple(e) for e in product(*(range(r + 3) for r in tower.ranks))]


def line_symbols(tower):
    return [tuple(v) for v in product(range(-2, 3), repeat=tower.n_levels)]


def int_pair(rng, keys, n):
    a = {m: rng.choice([-2, -1, 1, 2, 3]) for m in rng.sample(keys, min(n, len(keys)))}
    b = {m: -c for m, c in a.items() if rng.random() < 0.4}
    for m in rng.sample(keys, min(3, len(keys))):
        b.setdefault(m, rng.choice([-1, 1, 2]))
    return a, b


# -- the tests ------------------------------------------------------------------


def test_kernel_against_the_reference():
    rng = random.Random(9)
    keys = [tuple(e) for e in product(range(3), repeat=2)]
    for _ in range(300):
        a, b = pair(rng, keys, rng.randint(0, 6))
        c = coefficient(rng) or 1
        shift = rng.choice([None, (1, 0), (-1, 2)])
        out = accumulate({}, a)
        assert_stored(out, ref_add((a, 1, None)))
        assert accumulate(out, b, c, shift) is out
        assert_stored(out, ref_add((a, 1, None), (b, c, shift)))


def test_kernel_cancels_and_stores_ints():
    out = {(1,): Fraction(1, 3), (2,): 5}
    accumulate(out, {(1,): Fraction(2, 3), (2,): -5, (3,): Fraction(1, 2)}, 1)
    assert out == {(1,): 1, (3,): Fraction(1, 2)} and type(out[(1,)]) is int
    accumulate(out, {(1,): Fraction(1, 2), (3,): Fraction(1, 4)}, -2)
    assert out == {}
    assert accumulate({}, {(0,): 3}, 0) == {}


def test_graded_polynomial_linear_maps():
    rng = random.Random(10)
    al = Alphabet([("a", 1), ("b", 2)])
    keys = [(i, j) for i in range(4) for j in range(3) if i + 2 * j <= 5]
    for _ in range(200):
        a, b = pair(rng, keys, rng.randint(0, 6))
        p, q = GradedPolynomial(al, 5, a), GradedPolynomial(al, 5, b)
        assert_stored((p + q).terms, ref_add((a, 1, None), (b, 1, None)))
        assert_stored((p - q).terms, ref_add((a, 1, None), (b, -1, None)))
        r = coefficient(rng)
        assert_stored(p.scale(r).terms, ref_add((a, r, None)))
        low = {m: c for m, c in ref_mul(a, b).items() if m[0] + 2 * m[1] <= 5}
        assert_stored((p * q).terms, low)


def test_chow_classes():
    rng = random.Random(11)
    seen = {"cancelled": 0, "integral from fractions": 0}
    for _ in range(120):
        tower = rng.choice(TOWERS)
        rules = tower._chow_rules
        raw_a, raw_b = pair(rng, basis(tower), rng.randint(1, 5))
        for m in rng.sample(raw_monomials(tower), 2):
            raw_a.setdefault(m, coefficient(rng) or 1)
        alpha, beta = ChowClass(tower, raw_a), ChowClass(tower, raw_b)
        a = ref_normal_form(tower, raw_a, rules)
        b = ref_normal_form(tower, raw_b, rules)
        assert_stored(alpha.terms, a)
        assert_stored(beta.terms, b)
        total = ref_add((a, 1, None), (b, 1, None))
        assert_stored((alpha + beta).terms, total)
        assert_stored((alpha - beta).terms, ref_add((a, 1, None), (b, -1, None)))
        r = coefficient(rng)
        assert_stored(alpha.scale(r).terms, ref_add((a, r, None)))
        assert_stored((alpha * beta).terms, ref_normal_form(tower, ref_mul(a, b), rules))
        for n in range(tower.n_levels + 1):
            pushed = dict(a)
            current = tower
            for _ in range(n):
                k = current.n_levels - 1
                top = {m: c for m, c in pushed.items() if m[k] == current.ranks[k]}
                pushed = ref_add((top, 1, (0,) * k))
                current = current.base
            result = pushforward_chow(alpha, n)
            assert result.tower is current
            assert_stored(result.terms, pushed)
        seen["cancelled"] += any(m not in total for m in a if m in b)
        seen["integral from fractions"] += any(
            Fraction(a[m]).denominator > 1 and m in total and total[m].denominator == 1
            for m in a
        )
    assert min(seen.values()) >= 10, seen


def test_k_classes():
    rng = random.Random(12)
    for _ in range(120):
        tower = rng.choice(TOWERS)
        a, b = int_pair(rng, line_symbols(tower), rng.randint(1, 5))
        f, g = KClass(tower, a), KClass(tower, b)
        for got, want in [
            (f + g, ref_add((a, 1, None), (b, 1, None))),
            (f - g, ref_add((a, 1, None), (b, -1, None))),
            (f * g, ref_mul(a, b)),
            (f - f, {}),
        ]:
            assert got.line_terms == want
            assert all(type(c) is int for c in got.line_terms.values())
        vec = tuple(rng.randint(-2, 2) for _ in range(tower.n_levels))
        assert f.twist(vec).line_terms == ref_add((a, 1, vec))
        assert KClass(tower, f.normal_form()) == f
        assert f.normal_form() == ref_normal_form(tower, a, tower._k_rules)
        for n in range(tower.n_levels + 1):
            pushed = dict(a)
            current = tower
            for _ in range(n):
                k = current.n_levels - 1
                banded = ref_normal_form(current, pushed, current._k_rules, levels=(k,))
                pushed = ref_add(
                    *((current._pushed_power(v[k]), c, v[:k]) for v, c in banded.items())
                )
                current = current.base
            result = pushforward_k(f, n)
            assert result.tower is current
            assert result.line_terms == pushed
            assert all(type(c) is int for c in result.line_terms.values())

"""wedge and sym of every K class, and the closed-form K-pushforward.

The generating-function powers are compared with the subset and multiset
enumeration on effective classes, the closed form of pi_* l^a with the
outward recurrence through the K relation on every catalogue tower, and the
powers of virtual classes with the lambda-ring identities
lambda_t(x + y) = lambda_t(x) lambda_t(y) and sigma_t(x) lambda_{-t}(x) = 1,
degree by degree, in the group ring of line symbols.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grrcheck.geometry import KClass, Tower
from grrcheck.suites import MODEL_TOWERS, geometry_tower

from lambda_reference import multiset_power, outward_pushed_powers

# the catalogue's level lists, then two towers whose twists are larger or
# negative; each test builds its own towers, with no pushforward table filled
TOWER_LEVELS = [
    [list(level) for level in geometry_tower(text).levels] for _, text, _ in MODEL_TOWERS
] + [
    [[(), ()], [(0,), (3,)]],
    [[(), (), ()], [(1,), (-2,), (0,)], [(1, 1), (0, -1)]],
]


def test_powers_of_effective_classes_match_the_enumeration():
    rng = random.Random(19)
    towers = [Tower(levels) for levels in TOWER_LEVELS]
    for _ in range(300):
        tower = rng.choice(towers)
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(tower.n_levels)): rng.randint(1, 3)
            for _ in range(rng.randint(1, 3))
        }
        f = KClass(tower, terms)
        n = rng.randint(0, 6)
        assert f.wedge(n).line_terms == multiset_power(f, n, "wedge"), (terms, n)
        assert f.sym(n).line_terms == multiset_power(f, n, "sym"), (terms, n)


@pytest.mark.parametrize("levels", TOWER_LEVELS, ids=str)
def test_closed_form_pushforward_matches_the_recurrence(levels):
    current = Tower(levels)
    while current.base is not None:
        table = outward_pushed_powers(current, -15, 15)
        for a in range(-15, 16):
            assert current._pushed_power(a) == table[a], (current, a)
        assert sorted(current._pushed) == list(range(-15, 16))
        current = current.base


# a two-level tower, so that line symbols are vectors
TOWER = Tower([[(), (), ()], [(0,), (1,)]])
VIRTUAL = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=3
).map(lambda terms: KClass(TOWER, terms))


def _sum(classes) -> dict:
    total = KClass(TOWER, {})
    for f in classes:
        total = total + f
    return total.line_terms


@settings(max_examples=80, deadline=None)
@given(VIRTUAL, VIRTUAL, st.integers(0, 5))
def test_wedge_of_a_sum_is_the_product(x, y, n):
    assert (x + y).wedge(n).line_terms == _sum(x.wedge(i) * y.wedge(n - i) for i in range(n + 1))


@settings(max_examples=80, deadline=None)
@given(VIRTUAL, st.integers(0, 6))
def test_sym_inverts_the_alternating_wedge(x, n):
    got = _sum((x.sym(i) * x.wedge(n - i)).scale((-1) ** (n - i)) for i in range(n + 1))
    assert got == ({(0, 0): 1} if n == 0 else {})

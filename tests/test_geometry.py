import random
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck import geometry
from grrcheck.geometry import (
    ChowClass,
    KClass,
    Tower,
    VirtualCompleteIntersection,
    chi_projective_space_oracle,
    euler_characteristic,
    pullback_k,
    pushforward_chow,
    pushforward_k,
    tower,
)
from grrcheck.grr import MorphismDatum, check_main_theorem, chow_degree
from grrcheck.specparse import build_geometry, parse_geometry
from grrcheck.suites import MODEL_TOWERS, geometry_scope

import chow_reference as tuple_ring
from chern_reference import factor_total_chern
from chow_reference import chow_class, chow_terms
from lambda_reference import eager_k_rules, line_product


def pullback_chow(alpha: ChowClass, tower: Tower) -> ChowClass:
    """Pull back from a prefix tower (injection of the base polynomial)."""
    k = alpha.tower.n_levels
    assert tower.prefix(k).levels == alpha.tower.levels
    pad, keys = tower.n_levels - k, tower.alphabet.keys
    return ChowClass(tower, {keys[m + (0,) * pad]: c for m, c in chow_terms(alpha).items()})


def hirzebruch(twist: int = 1) -> Tower:
    # P(O + O(twist*h)) over the projective line
    return Tower([[(), ()], [(0,), (twist,)]])


def p_by_p(a: int, b: int) -> Tower:
    return Tower([[()] * (a + 1), [(0,) * 1] * (b + 1)])


class TestTowerConstruction:
    def test_projective_space(self):
        p2 = Tower([[()] * 3])
        assert p2.dim == 2 and p2.ranks == (2,)
        h = p2.hyperplane(1)
        assert (h * h * h).is_zero()
        assert not (h * h).is_zero()

    def test_point(self):
        pt = Tower([])
        assert pt.dim == 0
        assert pt.unit_chow().serialize() == "1/1"

    def test_product(self):
        t = p_by_p(1, 1)
        x1, x2 = t.hyperplane(1), t.hyperplane(2)
        s = (x1 + x2) * (x1 + x2)
        assert s.serialize() == (x1 * x2).scale(2).serialize()

    def test_hirzebruch_relation(self):
        t = hirzebruch()
        xi, h = t.hyperplane(2), t.hyperplane(1)
        assert (xi * xi).serialize() == (h * xi).serialize()

    def test_malformed_level(self):
        with pytest.raises(AssertionError, match="must reference exactly the 0 earlier"):
            Tower([[(0,), ()]])
        with pytest.raises(AssertionError, match="level 1 has no line summands"):
            Tower([[]])

    def test_rank_past_the_packed_range_is_refused(self, monkeypatch):
        # a basis exponent is at most its level's rank, so ranks below 2^14
        # keep every sum of two Chow keys inside the packed range; a larger
        # rank, which the CLI refuses before building a tower, is a broken
        # invariant here, asserted before the level's bundle is built
        init = KClass.__init__

        def spy(f, tower, line_terms):
            assert sum(line_terms.values()) <= 1 << 14, "the refused level's bundle built"
            init(f, tower, line_terms)

        monkeypatch.setattr(KClass, "__init__", spy)
        for levels, level in [([[()] * 16385], 1), ([[(), ()], [(1,)] * 16386], 2)]:
            with pytest.raises(
                AssertionError, match=f"level {level} has rank {len(levels[-1]) - 1}, past the"
            ):
                Tower(levels)

    def test_tower_mismatch(self):
        a, b = Tower([[()] * 3]), Tower([[()] * 3])
        with pytest.raises(AssertionError, match="classes live on different towers"):
            _ = a.hyperplane(1) + b.hyperplane(1)


class TestOneTowerPerLevelList:
    """geometry.tower keeps one tower per level list, and every tower takes
    its base from it."""

    @staticmethod
    def scope(text):
        return build_geometry(parse_geometry(text))

    def test_towers_over_one_base_share_it(self):
        p1xp1 = self.scope("P(trivial 2) over P(trivial 2) over point").tower
        f1 = self.scope("P([0, xi1]) over P(trivial 2) over point").tower
        assert p1xp1 is not f1
        assert p1xp1.base is f1.base is tower((((), ()),))
        assert p1xp1.base.base is tower(())

    def test_aliases_name_one_tower(self):
        a = self.scope("P([0, a]) over P(trivial 2) as a over point")
        b = self.scope("P([0, xi1]) over P(trivial 2) as b over point")
        assert a.names != b.names
        assert a.tower is b.tower is tower((((), ()), ((0,), (1,))))

    def test_tower_called_directly_is_a_new_top_over_the_shared_base(self):
        levels = (((), ()), ((0,), (1,)))
        a, b = Tower(levels), Tower(levels)
        assert a is not b and tower(levels) not in (a, b)
        assert a.base is b.base is tower(levels[:-1])

    def test_a_suite_text_reads_the_table(self):
        text = "P([0, xi1]) over P(trivial 2) over point"
        assert geometry_scope(text).tower is tower((((), ()), ((0,), (1,))))
        geometry._towers.clear()
        assert geometry_scope(text).tower is tower((((), ()), ((0,), (1,))))

    def test_refused_rank_raises_on_every_call_and_stores_nothing(self):
        for levels in [(((),) * 16385,), (((), ()), ((1,),) * 16386)]:
            tower(levels[:-1])
            stored = dict(geometry._towers)
            for _ in range(2):
                with pytest.raises(AssertionError, match="past the packed range"):
                    tower(levels)
            assert geometry._towers == stored

    def test_threads_that_name_a_new_level_list_at_once_get_one_tower(self, monkeypatch):
        # each build sleeps, so the second thread asks while the first builds
        class SlowTower(Tower):
            def __init__(self, levels):
                time.sleep(0.05)
                super().__init__(levels)

        monkeypatch.setattr(geometry, "Tower", SlowTower)
        levels = (((), (), ()),)
        got = []
        threads = [threading.Thread(target=lambda: got.append(tower(levels))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 2 and got[0] is got[1]


class TestNormalForm:
    def test_confluence_random_orders(self):
        # reducing a random product in two association orders agrees
        rng = random.Random(7)
        t = Tower([[(), (), ()], [(1,), (0,)], [(1, 1), (0, 0)]])
        classes = [t.hyperplane(k) for k in (1, 2, 3)]
        for _ in range(40):
            picks = [rng.choice(classes) for _ in range(rng.randint(2, 6))]
            left = t.unit_chow()
            for c in picks:
                left = left * c
            right = t.unit_chow()
            for c in reversed(picks):
                right = c * right
            assert left.serialize() == right.serialize()

    def test_normal_form_exponent_bounds(self):
        t = hirzebruch()
        xi = t.hyperplane(2)
        big = xi * xi * xi * xi * xi
        for mono in chow_terms(big):
            assert mono[1] <= t.ranks[1]

    def test_confluence_against_random_order_rewriter(self):
        # an independent rewriter that fires rules in random order must land
        # on the same normal form as the level-ordered implementation
        rng = random.Random(99)
        t = Tower([[(), (), ()], [(1,), (0,)], [(1, 1), (0, 0)]])

        def alt_reduce(terms):
            work = {m: Fraction(c) for m, c in terms.items() if c}
            while True:
                excess = [
                    (m, k)
                    for m in work
                    for k in range(t.n_levels)
                    if m[k] > t.ranks[k]
                ]
                if not excess:
                    return work
                mono, k = excess[rng.randrange(len(excess))]
                coeff = work.pop(mono)
                above, _ = t._chow_rules[k]
                for offset, rc in above.items():
                    key = tuple(b + v for b, v in zip(mono, offset))
                    val = work.get(key, Fraction(0)) + coeff * rc
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)

        for _ in range(20):
            raw = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(rng.randint(0, 3) for _ in range(t.n_levels))
                if sum(mono) <= 6:
                    raw[mono] = Fraction(rng.randint(-4, 4))
            expected = chow_terms(chow_class(t, raw))
            assert alt_reduce(raw) == expected


def scalar_types(alpha: ChowClass) -> set:
    return {type(c) for c in alpha.terms.values()}


class TestProductTable:
    # the catalogue towers as level lists (the ids and seeds below print
    # them), plus one with a rank-0 level (xi2 = h) under a twisted level
    TOWERS = [
        [list(level) for level in geometry_scope(text).tower.levels] for _, text, _ in MODEL_TOWERS
    ] + [
        [[(), (), ()], [(1,)], [(2, -1), (0, 1), (1, 1)]],
    ]

    @staticmethod
    def random_terms(rng, t):
        # exponents up to two past each rank, so raw terms need the rewrite
        # and products reach degrees above the dimension
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, r + 2) for r in t.ranks)
            terms[mono] = rng.choice(
                [rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))]
            )
        return terms

    @pytest.mark.parametrize("levels", TOWERS, ids=str)
    def test_table_product_matches_rewrite_of_naive_product(self, levels, monkeypatch):
        rng = random.Random(f"product-table:{levels}")
        t = Tower(levels)
        rewritten = []
        normal_form = Tower._normal_form

        def spy(tower, terms, rules):
            rewritten.extend(terms)
            return normal_form(tower, terms, rules)

        for _ in range(30):
            a = chow_class(t, self.random_terms(rng, t))
            b = chow_class(t, self.random_terms(rng, t))
            naive = {}
            for ma, ca in chow_terms(a).items():
                for mb, cb in chow_terms(b).items():
                    key = tuple(x + y for x, y in zip(ma, mb))
                    naive[key] = naive.get(key, 0) + ca * cb
            monkeypatch.setattr(Tower, "_normal_form", spy)
            product = a * b
            monkeypatch.undo()
            assert product.serialize() == chow_class(t, naive).serialize()
        # the table rewrites no pair above the dimension: it vanishes unread
        assert all(sum(m) <= t.dim for m in rewritten)

    def test_integer_classes_stay_integer(self):
        t = Tower(self.TOWERS[-1])
        x = t.hyperplane(1).scale(Fraction(3)) - t.hyperplane(3)
        for alpha in (x * x, x.scale(-2), x + x, pushforward_chow(x * x * x, 1)):
            assert scalar_types(alpha) <= {int}, alpha
        half = x.scale(Fraction(1, 2))
        assert scalar_types(half * x) <= {int, Fraction}
        assert (half * x.scale(2)).serialize() == (x * x).serialize()

    def test_integral_results_of_rational_classes_are_int(self):
        p2 = Tower([[()] * 3])
        half = chow_class(p2, {(1,): Fraction(1, 2)})
        assert chow_terms(half + half) == {(1,): 1}
        assert scalar_types(half + half) == {int}
        assert scalar_types(half - half.scale(-1)) == {int}
        assert scalar_types(half.scale(2)) == {int}
        assert scalar_types(half * half.scale(4)) == {int}
        assert scalar_types(half + half + half) == {Fraction}

    def test_unit_is_built_once(self):
        t = Tower(self.TOWERS[-1])
        assert t.unit_chow() is t.unit_chow()
        assert t.zero_chow() is t.zero_chow()
        x = t.hyperplane(2) * t.hyperplane(3) - t.hyperplane(1).scale(4)
        assert (t.unit_chow() * x).serialize() == x.serialize() == (x * t.unit_chow()).serialize()
        assert (t.zero_chow() * x).is_zero()
        assert chow_terms(t.unit_chow()) == {(0, 0, 0): 1}

    @pytest.mark.parametrize("levels", TOWERS, ids=str)
    def test_each_raw_product_monomial_is_rewritten_once(self, levels, monkeypatch):
        # the one product memo: keyed by the raw key ka + kb of every pair
        # multiplied, each raw monomial rewritten once, whatever pair gave it
        t = Tower(levels)
        basis = list(product(*(range(r + 1) for r in t.ranks)))
        keys = t.alphabet.keys
        rewritten = []
        normal_form = Tower._normal_form

        def spy(tower, terms, rules):
            rewritten.extend(terms)
            return normal_form(tower, terms, rules)

        classes = [chow_class(t, {m: 1}) for m in basis]
        monkeypatch.setattr(Tower, "_normal_form", spy)
        for a in classes:
            for b in classes:
                a * b
        monkeypatch.undo()
        raws = {tuple(map(add, ma, mb)) for ma in basis for mb in basis}
        assert set(t._products) == {keys[m] for m in raws}
        assert len(rewritten) == len(set(rewritten))
        assert all(sum(m) <= t.dim for m in rewritten)  # none above the dimension
        for raw in raws:
            want = t._normal_form({raw: 1}, t._chow_rules) if sum(raw) <= t.dim else {}
            assert {t.alphabet.monomial(k): c for k, c in t._products[keys[raw]]} == want, raw


class TestDivisorChow:
    """divisor_chow reads each xi_k from the product memo, where it is
    rewritten once; it must equal the rewritten class, also where a rank-0
    level turns xi_k into the divisor of its line."""

    TOWERS = TestProductTable.TOWERS + [
        [[(), ()], [(2,)]],
        [[(), ()], [(-1,)], [(1, 1), (0, 3)]],
        [[(), (), ()], [(1,), (0,)], [(1, -1)]],  # a rank-0 top level: xi3 = xi1 - xi2
    ]

    @pytest.mark.parametrize("levels", TOWERS, ids=str)
    def test_matches_the_rewritten_class(self, levels):
        t = Tower(levels)
        for vec in product(range(-2, 3), repeat=t.n_levels):
            raw = {
                tuple(int(p == k) for p in range(t.n_levels)): c
                for k, c in enumerate(vec)
                if c
            }
            d = t.divisor_chow(vec)
            assert d.serialize() == chow_class(t, raw).serialize(), vec
            assert scalar_types(d) <= {int}, vec

    def test_each_hyperplane_is_rewritten_once(self, monkeypatch):
        t = Tower(TestProductTable.TOWERS[-1])  # ranks 2, 0, 2
        first = t.divisor_chow((3, 1, -1))

        def rewrite(*args):
            raise AssertionError("normal form computed")

        monkeypatch.setattr(t, "_normal_form", rewrite)
        assert t.divisor_chow((3, 1, -1)).terms == first.terms
        assert chow_terms(t.divisor_chow((1, 0, 2))) == {(1, 0, 0): 1, (0, 0, 1): 2}
        with pytest.raises(AssertionError, match="normal form"):
            t.hyperplane(1) * t.hyperplane(3)  # a raw key not yet in the memo


class TestPushPull:
    def test_p2_to_point(self):
        p2 = Tower([[()] * 3])
        h = p2.hyperplane(1)
        assert pushforward_chow(h * h, 1).serialize() == "1/1"
        assert pushforward_chow(h, 1).is_zero()
        assert pushforward_chow(p2.unit_chow(), 1).is_zero()

    def test_product_to_base(self):
        t = p_by_p(2, 1)
        x1, x2 = t.hyperplane(1), t.hyperplane(2)
        down = pushforward_chow(x1 * x2, 1)  # collapse the fiber line
        assert down.serialize() == chow_class(t.prefix(1), {(1,): Fraction(1)}).serialize()

    def test_pullback_then_push(self):
        t = p_by_p(1, 2)
        base = t.prefix(1)
        beta = base.hyperplane(1)
        lifted = pullback_chow(beta, t)
        # p_* p^* = 0 unless relative dimension is 0
        assert pushforward_chow(lifted, 1).is_zero()

    def test_projection_formula_exhaustive(self):
        t = Tower([[(), ()], [(1,), (0,)], [(0, 1), (1, 0)]])
        base = t.prefix(2)
        fiber_monos = [m for m in product(*(range(r + 1) for r in t.ranks))]
        base_monos = [m for m in product(*(range(r + 1) for r in base.ranks))]
        for am in fiber_monos:
            alpha = chow_class(t, {am: Fraction(1)})
            for bm in base_monos:
                beta = chow_class(base, {bm: Fraction(1)})
                lhs = pushforward_chow(alpha * pullback_chow(beta, t), 1)
                rhs = pushforward_chow(alpha, 1) * beta
                assert lhs.serialize() == rhs.serialize(), (am, bm)

    def test_functoriality_stepwise_vs_at_once(self):
        t = Tower([[(), ()], [(1,), (0,)], [(0, 1), (1, 0)]])
        for mono in product(*(range(r + 1) for r in t.ranks)):
            alpha = chow_class(t, {mono: Fraction(1)})
            stepwise = pushforward_chow(pushforward_chow(alpha, 1), 1)
            assert stepwise.serialize() == pushforward_chow(alpha, 2).serialize()
        f = KClass(t, {(1, -1, 2): 3, (0, 1, 0): -1})
        step = pushforward_k(pushforward_k(f, 1), 1)
        once = pushforward_k(f, 2)
        assert step.serialize() == once.serialize()


class TestChern:
    def test_line_bundle(self):
        p2 = Tower([[()] * 3])
        f = p2.line((1,))
        assert f.total_chern().graded_part(1).serialize() == p2.hyperplane(1).serialize()
        assert f.total_chern().graded_part(2).is_zero()

    def test_virtual_pair(self):
        p2 = Tower([[()] * 3])
        f = p2.line((1,)) + p2.line((-1,))
        h = p2.hyperplane(1)
        assert f.total_chern().graded_part(1).is_zero()
        assert f.total_chern().graded_part(2).serialize() == (h * h).scale(-1).serialize()

    def test_virtual_rank(self):
        p2 = Tower([[()] * 3])
        assert (p2.line((1,)) - p2.structure_sheaf()).rank() == 0

    def test_whitney_on_samples(self):
        t = hirzebruch()
        f = t.line((1, 0)) + t.line((0, 1))
        g = t.line((-1, 1)) + t.line((2, 0)).scale(2)
        assert (f + g).total_chern().serialize() == (f.total_chern() * g.total_chern()).serialize()

    def test_tangent_projective_spaces(self):
        p2 = Tower([[()] * 3])
        h = p2.hyperplane(1)
        ct = p2.tangent_class().total_chern()
        assert ct.graded_part(1).serialize() == h.scale(3).serialize()
        assert ct.graded_part(2).serialize() == (h * h).scale(3).serialize()
        p1 = Tower([[()] * 2])
        c1 = p1.tangent_class().total_chern().graded_part(1)
        assert c1.serialize() == p1.hyperplane(1).scale(2).serialize()

    def test_tangent_additive_across_levels(self):
        t = p_by_p(1, 1)
        c1 = t.tangent_class().total_chern().graded_part(1)
        assert c1.serialize() == (t.hyperplane(1).scale(2) + t.hyperplane(2).scale(2)).serialize()


def reference_total_chern(f: KClass) -> ChowClass:
    # the product of (1 + D) factors, with 1 - D + D^2 - ... for negative ones
    t = f.tower
    unit = t.unit_chow()
    total = unit
    for vec, mult in f.line_terms.items():
        d = t.divisor_chow(vec)
        factor = unit + d
        if mult < 0:
            factor, power = unit, unit
            for _ in range(t.dim):
                power = power * d.scale(-1)
                factor = factor + power
        for _ in range(abs(mult)):
            total = total * factor
    return total


class TestBinomialTotalChern:
    TOWER = [[(), (), ()], [(1,), (0,)], [(1, -1), (0, 2)]]

    @pytest.mark.parametrize("mult", range(-6, 7))
    def test_single_symbol_matches_product(self, mult):
        t = Tower(self.TOWER)
        for vec in [(1, 0, 0), (0, 1, -1), (2, -1, 1), (-1, 1, 1), (0, 0, 0)]:
            f = KClass(t, {vec: mult})
            assert f.total_chern().serialize() == reference_total_chern(f).serialize(), (vec, mult)

    def test_mixed_class_matches_product(self):
        t = Tower(self.TOWER)
        f = KClass(t, {(1, 0, 0): 5, (0, 1, -1): -6, (2, -1, 1): -3, (-1, 1, 1): 4})
        assert f.total_chern().serialize() == reference_total_chern(f).serialize()


class TestRunningProductTotalChern:
    """total_chern's running product against the factor-by-factor product of
    tests/chern_reference.py, on the product-table towers (twisted levels and
    a rank-0 level among them)."""

    @pytest.mark.parametrize("levels", TestProductTable.TOWERS, ids=str)
    def test_random_classes_match_factor_product(self, levels):
        rng = random.Random(f"running-chern:{levels}")
        t = Tower(levels)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                vec = tuple(rng.randint(-2, 2) for _ in range(t.n_levels))
                terms[vec] = rng.choice((-3, -2, -1, 1, 2, 3))  # nonzero, as KClass takes them
            f = KClass(t, terms)
            assert f.total_chern().serialize() == factor_total_chern(f).serialize(), terms


class TestTowerChain:
    def test_prefix_of_prefix_is_the_same_tower(self):
        t = Tower([[(), (), ()], [(1,), (0,)], [(1, -1), (0, 2)]])
        for k in range(t.n_levels + 1):
            for j in range(k + 1):
                assert t.prefix(k).prefix(j) is t.prefix(j)
        assert t.base is t.prefix(2) and t.prefix(0).base is None

    def test_pushforward_lands_on_the_base(self):
        t = Tower([[(), (), ()], [(1,), (0,)], [(1, -1), (0, 2)]])
        f = KClass(t, {(1, -1, 2): 3, (0, 1, -3): -1})
        assert pushforward_k(f, 1).tower is t.prefix(t.n_levels - 1)
        assert pushforward_chow(t.hyperplane(3), 1).tower is t.base

    def test_levels_come_from_the_bundle(self):
        # xi^2 = c1(E) xi - c2(E) on P(E) with E = O(h) + O(2h) over P2
        t = Tower([[(), (), ()], [(1,), (2,)]])
        h, xi = t.hyperplane(1), t.hyperplane(2)
        assert (xi * xi).serialize() == (h.scale(3) * xi - (h * h).scale(2)).serialize()
        # l^2 = [E] l - det E in K, and pi_* l = E
        e = t.line((1, 0)) + t.line((2, 0))
        assert t.line((0, 2)).serialize() == (e.twist((0, 1)) - t.line((3, 0))).serialize()
        pushed = pushforward_k(t.line((0, 1)), 1)
        assert pushed.serialize() == (t.base.line((1,)) + t.base.line((2,))).serialize()


class TestLambdaOps:
    def test_top_wedge(self):
        p2 = Tower([[()] * 3])
        f = p2.line((1,)) + p2.line((2,))
        assert f.wedge(2).serialize() == p2.line((3,)).serialize()

    def test_sym_square(self):
        p2 = Tower([[()] * 3])
        f = p2.structure_sheaf() + p2.line((1,))
        expected = p2.structure_sheaf() + p2.line((1,)) + p2.line((2,))
        assert f.sym(2).serialize() == expected.serialize()

    def test_dual_involution(self):
        t = hirzebruch()
        f = t.line((2, -1)) + t.line((0, 1)).scale(3)
        assert f.dual().dual().serialize() == f.serialize()

    def test_virtual_class(self):
        # lambda_t(L - O) = (1 + L t)/(1 + t) and sigma_t(L - O) = (1 - t)/(1 - L t)
        p2 = Tower([[()] * 3])
        virt = p2.line((1,)) - p2.structure_sheaf()
        assert virt.wedge(1).serialize() == virt.serialize()
        assert virt.wedge(2).line_terms == {(0,): 1, (1,): -1}
        assert virt.sym(2).line_terms == {(2,): 1, (1,): -1}


class TestKPushforward:
    def test_large_twist_keeps_only_the_exponent_asked_for(self):
        # pi_* l^a = Sym^a(O + O(h)) = sum_{b <= a} O(b h) on P1, of Euler
        # characteristic sum_{b <= a} (b + 1)
        t = hirzebruch()
        a = 8000
        assert euler_characteristic(t.line((0, a))) == (a + 1) * (a + 2) // 2
        assert list(t._pushed) == [a]

    def test_positive_twists_match_binomial_oracle(self):
        for n in range(1, 5):
            pn = Tower([[()] * (n + 1)])
            for a in range(0, 5):
                got = euler_characteristic(pn.line((a,)))
                assert got == chi_projective_space_oracle(n, a), (n, a)

    def test_vanishing_band(self):
        for n in range(1, 5):
            pn = Tower([[()] * (n + 1)])
            for a in range(-n, 0):
                pushed = pushforward_k(pn.line((a,)), 1)
                assert not pushed.line_terms, (n, a)

    def test_negative_twists_match_oracle(self):
        for n in range(1, 5):
            pn = Tower([[()] * (n + 1)])
            for a in range(-6, 0):
                assert euler_characteristic(pn.line((a,))) == chi_projective_space_oracle(
                    n, a
                ), (n, a)

    def test_large_twists_match_oracle(self):
        p3 = Tower([[()] * 4])
        for a in (100000, -100000):
            assert euler_characteristic(p3.line((a,))) == chi_projective_space_oracle(3, a), a

    def test_serre_example(self):
        p1 = Tower([[()] * 2])
        pushed = pushforward_k(p1.line((-2,)), 1)
        assert pushed.serialize() == p1.prefix(0).structure_sheaf().scale(-1).serialize()

    def test_structure_sheaf_pushes_to_structure_sheaf(self):
        t = Tower([[(), ()], [(1,), (0,)]])
        pushed = pushforward_k(t.structure_sheaf(), 1)
        assert pushed.serialize() == t.prefix(1).structure_sheaf().serialize()

    def test_product_chi(self):
        t = p_by_p(1, 1)
        assert euler_characteristic(t.line((1, 1))) == 4
        assert euler_characteristic(t.line((2, 3))) == 12
        assert euler_characteristic(t.line((-2, 1))) == -2

    def test_twisted_tower_chi_consistency(self):
        # chi on the twisted tower agrees with the rank-sum over Sym pieces
        t = hirzebruch()
        for a in range(-2, 3):
            for b in range(-2, 3):
                f = t.line((a, b))
                chi = euler_characteristic(f)
                pushed = pushforward_k(f, 1)
                manual = sum(
                    c * chi_projective_space_oracle(1, vec[0])
                    for vec, c in pushed.line_terms.items()
                )
                assert chi == manual, (a, b)


class TestKNormalForm:
    def test_relation_holds(self):
        p1 = Tower([[()] * 2])
        # (1 - [O(-1)])^2 = 0 on the line
        u = p1.structure_sheaf() - p1.line((-1,))
        assert (u - u.twist((-1,))).normal_form() == {}

    def test_band(self):
        t = hirzebruch()
        f = t.line((3, 4)) - t.line((-2, -1))
        for vec in f.normal_form():
            assert 0 <= vec[0] <= t.ranks[0] and 0 <= vec[1] <= t.ranks[1]

    def test_equality_modulo_relations(self):
        p1 = Tower([[()] * 2])
        lhs = p1.line((2,))
        rhs = p1.line((1,)).scale(2) - p1.structure_sheaf()
        assert lhs.serialize() == rhs.serialize()  # l^2 = 2l - 1 on the line

    def test_serialize_prints_normal_form(self):
        p1 = Tower([[()] * 2])
        assert p1.line((2,)).serialize() == "-1/1\n2/1 l1^1"


class TestKClassNormal:
    """Every operation builds its result from terms already clean: for K
    classes nonzero int multiplicities of line symbols of the tower's arity,
    for Chow classes normal-form terms without zeros.  Outside input reaches
    the K ring through Tower.line, which refuses a symbol of the wrong arity."""

    def test_operation_results_are_clean(self):
        t = Tower([[(), ()], [(0,), (1,)], [(1, -1), (0, 2)]])
        f = KClass(t, {(1, -3, -4): 1, (0, 2, 1): 2, (-1, 0, 5): -1})
        g = KClass(t, {(0, 1, 0): 3, (1, -3, -4): -1})
        base = t.prefix(2)
        h = KClass(base, {(1, 2): 1, (0, -1): -2})
        fresh = Tower(t.levels)  # its tangent class is not cached yet
        k_results = {
            "add": f + g, "sub": f - g, "cancel": f - f, "scale": f.scale(-3),
            "scale 0": f.scale(0), "dual": f.dual(),
            "koszul": VirtualCompleteIntersection(t, ((1, 0, -1), (0, 2, 1))).koszul_class(f),
            "twist": f.twist((1, 0, -1)), "sym": g.sym(2), "wedge": f.wedge(2),
            "push": pushforward_k(f, 1), "push 0": pushforward_k(f, 0),
            "pull": pullback_k(h, t), "line": t.line((2, -1, 0)),
            "structure": t.structure_sheaf(), "tangent": fresh.tangent_class(),
        }
        for name, value in k_results.items():
            n_levels = value.tower.n_levels
            assert all(len(v) == n_levels for v in value.line_terms), name
            assert all(type(c) is int and c for c in value.line_terms.values()), name
        assert k_results["scale 0"].line_terms == k_results["cancel"].line_terms == {}

        rank_zero = Tower(TestProductTable.TOWERS[-1])  # ranks 2, 0, 2
        x, y = f.total_chern(), g.total_chern()
        chow_results = {
            "chern": x, "add": x + y, "sub": x - y, "cancel": x - x,
            "scale": x.scale(-2), "scale 0": x.scale(0), "mul": x * y,
            "graded": x.graded_part(2), "push": pushforward_chow(x * y, 2),
            "hyperplane": t.hyperplane(3), "divisor": t.divisor_chow((1, -2, 3)),
            "rank 0": rank_zero.divisor_chow((1, 2, -1)), "unit": t.unit_chow(),
        }
        for name, value in chow_results.items():
            tower, terms = value.tower, chow_terms(value)
            assert terms == tower._normal_form(terms, tower._chow_rules), name
            assert all(type(c) is int and c for c in value.terms.values()), name
        assert chow_results["scale 0"].is_zero() and chow_results["cancel"].is_zero()

    @pytest.mark.parametrize("vec", [(1, 2), (1, 2, 3, 4), ()], ids=str)
    def test_every_stated_vector_has_one_entry_per_level(self, vec):
        t = Tower([[(), ()], [(0,), (1,)], [(1, -1), (0, 2)]])
        for build in (
            t.line,
            t.divisor_chow,
            t.structure_sheaf().twist,
            lambda v: VirtualCompleteIntersection(t, ((0, 0, 1), v)),
        ):
            with pytest.raises(AssertionError, match="wrong arity"):
                build(vec)


def random_twisted_levels(rng: random.Random) -> list[list[tuple[int, ...]]]:
    return [
        [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 3))]
        for k in range(rng.randint(1, 4))
    ]


class TestLazyKRelation:
    """A level's K rules are built on the first K normal form, with det(E)
    read from the sum of the summands; a main-theorem check reads none."""

    LEVELS = TestProductTable.TOWERS + [
        random_twisted_levels(random.Random(f"twisted:{i}")) for i in range(12)
    ]

    @pytest.mark.parametrize("levels", LEVELS, ids=str)
    def test_rules_match_the_eager_reference(self, levels):
        t = Tower(levels)
        assert t._k_rules() == eager_k_rules(t)
        assert t._k_rules() is t._k_rules()

    @pytest.mark.parametrize("levels", LEVELS, ids=str)
    def test_det_from_the_summands_is_the_top_wedge(self, levels):
        t = Tower(levels)
        for level in (t.prefix(k) for k in range(1, t.n_levels + 1)):
            det = level.base.line(tuple(-x for x in level._det_inverse))
            assert det.line_terms == level._bundle.wedge(level.ranks[-1] + 1).line_terms

    def test_built_on_the_first_normal_form_only(self):
        t = Tower([[(), ()], [(0,), (1,)], [(1, -1), (0, 2)]])
        F = t.line((1, -3, -4)) + t.line((0, 2, 1)).scale(2) - t.line((-1, 0, 5)).wedge(1)
        for base in range(t.n_levels):
            for n in range(t.prefix(base).dim + 2):
                reports = check_main_theorem(MorphismDatum(t, base, "t"), F, n, "F")
                assert all(rep.passed for rep in reports)
        levels = [t.prefix(k) for k in range(t.n_levels + 1)]
        assert not any("k_rules" in level._cache for level in levels)
        F.normal_form()
        # every level above the point: the relation of its bundle on its base
        built = [level._cache.get("k_rules") for level in levels[1:]]
        assert all(built)
        F.twist((0, 1, -2)).serialize()
        assert all(level._cache["k_rules"] is rules for level, rules in zip(levels[1:], built))


class TestPackedChowAgainstTuples:
    """The Chow ring on packed keys against the ring on exponent tuples of
    chow_reference, on the catalogue towers, towers with rank-0 levels (the
    top one too, where divisor_chow reads xi_k's rewrite from the product
    memo) and seeded twisted towers: the terms, their keys, the text, and
    every integral coefficient stored as an int."""

    LEVELS = TestDivisorChow.TOWERS + [
        random_twisted_levels(random.Random(f"packed:{i}")) for i in range(12)
    ]
    COEFFICIENTS = st.one_of(
        st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(LEVELS), st.data())
    def test_ring_operations(self, levels, data):
        t = Tower(levels)
        # exponents up to two past each rank, so the raw terms need the rewrite
        mono = st.tuples(*[st.integers(0, r + 2) for r in t.ranks])
        raw = [data.draw(st.dictionaries(mono, self.COEFFICIENTS, max_size=6)) for _ in "ab"]
        a, b = (chow_class(t, r) for r in raw)
        ta, tb = chow_terms(a), chow_terms(b)
        n = data.draw(st.integers(-4, 4))
        q = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
        vec = data.draw(st.tuples(*[st.integers(-3, 3)] * t.n_levels))
        ab = tuple_ring.multiply(t, ta, tb)
        unit = (0,) * t.n_levels
        # each xi_k as the raw monomial, rewritten by the reference product with 1
        raw = {tuple(int(p == k) for p in range(t.n_levels)): c for k, c in enumerate(vec)}
        cases = {
            "divisor": (t.divisor_chow(vec), tuple_ring.multiply(t, {unit: 1}, raw)),
            "mul": (a * b, ab),
            "add": (a + b, tuple_ring.linear(ta, tb, 1)),
            "sub": (a - b, tuple_ring.linear(ta, tb, -1)),
            "scale int": (a.scale(n), tuple_ring.scale(ta, n)),
            "scale Fraction": (a.scale(q), tuple_ring.scale(ta, q)),
        }
        for m in range(t.dim + 2):
            cases[f"graded {m}"] = (a.graded_part(m), tuple_ring.graded_part(ta, m))
        for k in range(t.n_levels + 1):
            pushed = pushforward_chow(a * b, k)
            base, terms = tuple_ring.pushforward(t, ab, k)
            assert pushed.tower is base, k
            cases[f"push {k}"] = (pushed, terms)
        for name, (got, want) in cases.items():
            keys = got.tower.alphabet.keys
            assert got.terms == {keys[m]: c for m, c in want.items()}, name
            assert all(type(c) is int for c in got.terms.values() if c.denominator == 1), name
            assert got.serialize() == tuple_ring.text(got.tower, want), name
        degree = chow_degree(a * b)
        assert degree == tuple_ring.degree(t, ab)
        assert type(degree) is int or degree.denominator != 1


class TestVCI:
    TOWERS = [random_twisted_levels(random.Random(f"koszul:{i}")) for i in range(12)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(TOWERS), st.data())
    def test_koszul_class_is_the_product_of_its_factors(self, levels, data):
        """koszul_class(F) = F * prod_D (1 - O(-D)) over 1-3 nonzero cuts D,
        for F of rank >= 2, the product taken by line_product."""
        t = Tower(levels)
        vec = st.tuples(*[st.integers(-2, 2)] * t.n_levels)
        F = KClass(t, dict(Counter(data.draw(st.lists(vec, min_size=2, max_size=4)))))
        cuts = tuple(data.draw(st.lists(vec.filter(any), min_size=1, max_size=3)))
        want = F.line_terms
        for c in cuts:
            want = line_product(want, {(0,) * t.n_levels: 1, tuple(-x for x in c): -1})
        assert VirtualCompleteIntersection(t, cuts).koszul_class(F).line_terms == want

    def test_dimensions(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (2,)))
        assert z.codim == 2 and z.dim == 1

    def test_koszul_class(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((2,),))
        expected = p3.structure_sheaf() - p3.line((-2,))
        assert z.koszul_class(p3.structure_sheaf()).serialize() == expected.serialize()

    def test_push(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (2,)))
        h = p3.hyperplane(1)
        assert z.push(p3.unit_chow()).serialize() == (h * h).scale(2).serialize()
        assert z.push(h).serialize() == (h * h * h).scale(2).serialize()

    def test_no_cuts_is_the_tower_with_no_work(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        z = VirtualCompleteIntersection(t, ())
        F, alpha = t.line((1, -1)), t.hyperplane(2)
        assert z.koszul_class(F) is F and z.push(alpha) is alpha
        assert z.tangent_class() is z.tangent_class()
        assert z.tangent_class().serialize() == t.tangent_class().serialize()
        assert (z.dim, z.codim) == (t.dim, 0)
        cut = VirtualCompleteIntersection(t, ((1, 1),))
        assert repr(cut) == "VirtualCompleteIntersection(ambient=" + repr(t) + ", cuts=((1, 1),))"

    def test_tangent_rank(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,),))
        assert z.tangent_class().rank() == 2

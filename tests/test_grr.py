import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck.arith import InputError, bernoulli, todd_denominator
from grrcheck.geometry import (
    ChowClass,
    KClass,
    Tower,
    VirtualCompleteIntersection,
    euler_characteristic,
)
from grrcheck import grr
from grrcheck.grr import (
    FormalFibration,
    MorphismDatum,
    _chern_images,
    _instance_images,
    _sheaf_images,
    _source_ct,
    _source_relative_tangent,
    _tangent_chern,
    _todd_part,
    check_divisor_calculus,
    check_immersion,
    check_kappa_identity,
    check_main_theorem,
    check_surface_det_identity,
    chow_degree,
    corollary_sides,
    ct_on_tower,
    decomposition_rhs,
    euler_characteristic_via_chow,
    evaluate_universal,
    grr_error,
)
from grrcheck.poly import substitute_terms
from grrcheck.report import FalsificationError
from grrcheck.series import Mutation, set_mutation, universal_chern_character, universal_ct
from grrcheck.suites import MODEL_TOWERS, geometry_tower, model_tower, suite_immersion

from chern_reference import factor_total_chern
from rational_reference import rational_grr_cross_check


def all_pass(reports):
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, [(r.identity, r.instance, r.discrepancy) for r in bad]


def main_sides(f, F, n):
    return grr_error(f, n, *_instance_images(f, F, n))


class TestGrrError:
    def test_p2_twist_both_sides_36(self):
        p2 = Tower([[()] * 3])
        f = MorphismDatum(p2, 0, "P2->pt")
        lhs, rhs = main_sides(f, p2.line((1,)), 0)
        assert lhs.serialize() == "36/1"
        assert rhs.serialize() == "36/1"

    def test_hirzebruch_base_cases(self):
        for d in range(0, 5):
            pd = Tower([[()] * (d + 1)])
            f = MorphismDatum(pd, 0)
            lhs, rhs = main_sides(f, pd.structure_sheaf(), 0)
            assert lhs == rhs
            # chi(P^d, O) = 1, so the common value is the Todd denominator
            assert lhs.serialize() == f"{todd_denominator(d).value}/1"

    def test_identity_morphism(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        f = MorphismDatum(t, t.n_levels, "id")
        for n in range(0, 3):
            lhs, rhs = main_sides(f, t.line((1, -1)), n)
            assert lhs == rhs

    def test_morphism_geometry_is_fixed_at_construction(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        z = VirtualCompleteIntersection(t, ((1, 1),))
        for source, d in ((t, 1), (z, 0)):
            f = MorphismDatum(source, 1)
            assert (f.ambient, f.target, f.relative_dimension) == (t, t.prefix(1), d)
        for levels in (-1, 3):
            with pytest.raises(InputError, match=f"base levels {levels} outside 0..2"):
                MorphismDatum(z, levels)

    def test_negative_relative_dimension_routes_through_shift(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,),))
        f = MorphismDatum(z, 1, "hyperplane->P3")
        for n in range(0, 4):
            lhs, rhs = main_sides(f, p3.structure_sheaf(), n)
            assert lhs == rhs, n

    def test_corollary_and_decomposition(self):
        t = Tower([[(), (), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1, "bundle->P2")
        F = t.line((1, 1))
        for n in range(0, 3):
            pushed, source = _instance_images(f, F, n)
            s_n = evaluate_universal(universal_chern_character(n).numerator, f.target, pushed)
            cl, cr = corollary_sides(f, n, s_n, source)
            assert cl == cr, n
            dl, _ = grr_error(f, n, pushed, source)
            dr = decomposition_rhs(f, n, pushed, s_n)
            assert dl == dr, n

    def test_rational_shadow(self):
        t = Tower([[(), ()], [(0,), (2,)]])
        f = MorphismDatum(t, 1)
        for coeffs in [(0, 0), (1, -1), (-2, 2)]:
            assert rational_grr_cross_check(f, t.line(coeffs), 1)

    def test_twisting_stability(self):
        # once the identity holds for F, it holds for F twisted by a pullback
        t = Tower([[(), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1)
        F = t.line((0, 1))
        for n in range(0, 2):
            l0, r0 = main_sides(f, F, n)
            assert l0 == r0
            lt, rt = main_sides(f, F.twist((2, 0)), n)
            assert lt == rt


class TestCtClass:
    def test_degree_zero_is_rank_times_fundamental_class(self):
        p2 = Tower([[()] * 3])
        f = p2.line((1,)) + p2.structure_sheaf().scale(2)
        value = _source_ct(MorphismDatum(p2, 0), _sheaf_images(f, 0), 0, relative=False)
        assert value == p2.unit_chow().scale(3)

    def test_degree_one_structure_sheaf_on_line(self):
        p1 = Tower([[()] * 2])
        value = _source_ct(
            MorphismDatum(p1, 0), _sheaf_images(p1.structure_sheaf(), 1), 1, relative=False
        )
        assert value == p1.hyperplane(1).scale(2)

    def test_relative_on_trivial_family_matches_fiber(self):
        # fiberwise tangent difference of a product equals the fiber's
        # tangent, so relative and fiber-absolute classes agree
        t = Tower([[(), ()], [(0,), (0,), (0,)]])  # plane fibers over a line
        f = MorphismDatum(t, 1)
        rel = _source_relative_tangent(f)
        expected_c1 = t.hyperplane(2).scale(3)
        assert rel.total_chern().graded_part(1) == expected_c1
        assert rel.total_chern().graded_part(2) == (t.hyperplane(2) * t.hyperplane(2)).scale(3)
        value = _source_ct(f, _sheaf_images(t.structure_sheaf(), 2), 2, relative=True)
        absolute_fiber = (t.hyperplane(2) * t.hyperplane(2)).scale(12)
        assert value == absolute_fiber  # twelve times the fiber point class


def two_pass_ct(tower, tangent, sheaf, m):
    """The combined class by two substitution passes over its monomials, the
    tangent classes first and then every sheaf variable, with no cache."""
    names = ["r"] + [f"cp{i}" for i in range(1, m + 1)]
    numerator = universal_ct(m).numerator
    partial = substitute_terms(
        numerator.terms,
        numerator.alphabet.names(),
        _chern_images(tangent.total_chern(), m),
        tower.unit_chow(),
        keep=names,
    )
    grouped = substitute_terms(partial, names, sheaf, tower.unit_chow())
    return grouped.get((), tower.zero_chow())


def random_class(rng, tower, degree):
    """A nonzero class of the given degree (at most the dimension)."""
    basis = [
        mono for mono in product(*(range(r + 1) for r in tower.ranks)) if sum(mono) == degree
    ]
    terms = {mono: rng.randint(-3, 3) for mono in rng.sample(basis, rng.randint(1, len(basis)))}
    terms[rng.choice(basis)] = rng.choice([-2, -1, 1, 2])
    return ChowClass(tower, terms)  # basis terms, one of them nonzero


def sheaf_map(rng, tower, m, rank, live):
    """A sheaf map with the given rank whose cp_i are nonzero exactly for i in live."""
    images = {"r": rank}
    for i in range(1, m + 1):
        images[f"cp{i}"] = random_class(rng, tower, i) if i in live else tower.zero_chow()
    return images


def assert_compiled_matches(tower, tangent, sheaf, m):
    assert ct_on_tower(tower, tangent, sheaf, m) == two_pass_ct(tower, tangent, sheaf, m)


class TestCompiledCt:
    """ct_on_tower's Horner scheme per (rank, live cp_i) against two_pass_ct."""

    def test_catalogue_towers_seeded(self):
        rng = random.Random(7)
        for _, text, _ in MODEL_TOWERS:
            tower = geometry_tower(text)
            tangents = [tower.tangent_class(), tower.tangent_class() - tower.line((1,))]
            for m in range(0, 6):
                degrees = list(range(1, min(m, tower.dim) + 1))
                for rank in (0, -2, 1, 3):
                    for k in range(0, min(4, len(degrees)) + 1):
                        live = set(rng.sample(degrees, k))
                        sheaf = sheaf_map(rng, tower, m, rank, live)
                        for tangent in tangents:
                            assert_compiled_matches(tower, tangent, sheaf, m)

    def test_sheaves_of_every_rank_sign(self):
        for _, text, _ in MODEL_TOWERS:
            tower = geometry_tower(text)
            a = tower.line((1,) + (-1,) * (tower.n_levels - 1))
            b = tower.line((-2,) + (1,) * (tower.n_levels - 1))
            for F in (a - b, a.scale(-1) - b, a + b + tower.structure_sheaf(), b.scale(-3)):
                for m in range(0, 6):
                    assert_compiled_matches(tower, tower.tangent_class(), _sheaf_images(F, m), m)

    def test_every_tangent_kind(self):
        # absolute, fiberwise over each base and cut-out virtual tangents, at
        # rank 0, a negative and a positive rank, on random and on K-class
        # sheaf maps
        rng = random.Random(11)
        for tower, tangent, sheaves in tangent_sources():
            for m in range(0, tower.dim + 1):
                degrees = list(range(1, m + 1))
                for rank in (0, -2, 3):
                    for k in {0, len(degrees), rng.randint(0, len(degrees))}:
                        live = set(rng.sample(degrees, k))
                        sheaf = sheaf_map(rng, tower, m, rank, live)
                        assert_compiled_matches(tower, tangent, sheaf, m)
                for F in sheaves:
                    assert_compiled_matches(tower, tangent, _sheaf_images(F, m), m)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MODEL_TOWERS), st.integers(0, 5), st.integers(-4, 4), st.data())
    def test_matches_two_pass_route(self, entry, m, rank, data):
        tower = model_tower(entry[0])
        degrees = list(range(1, min(m, tower.dim) + 1))
        live = data.draw(st.sets(st.sampled_from(degrees), max_size=4) if degrees else st.just(set()))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        sheaf = sheaf_map(rng, tower, m, rank, live)
        assert_compiled_matches(tower, tower.tangent_class(), sheaf, m)


def tangent_sources():
    """(tower, tangent, sheaves) on fresh copies of the model towers, with the
    absolute tangent and the fiberwise one over each base, plus a cut-out
    source: a hyperplane of the P3 factor in P3 x P2 with its virtual tangent
    and Koszul sheaves."""
    for _, text, bases in MODEL_TOWERS:
        t = Tower(geometry_tower(text).levels)
        a = t.line((1,) + (-1,) * (t.n_levels - 1))
        b = t.line((-2,) + (1,) * (t.n_levels - 1))
        sheaves = [t.structure_sheaf(), a - b, b.scale(-3) + a]
        yield t, t.tangent_class(), sheaves
        for base in bases:
            if base:
                yield t, _source_relative_tangent(MorphismDatum(t, base)), sheaves
    t = Tower([[()] * 4, [(0,)] * 3])
    z = VirtualCompleteIntersection(t, ((1, 0),))
    sheaves = [z.koszul_class(), z.koszul_class(t.line((2, -1)))]
    yield t, z.tangent_class(), sheaves


class TestZeroAboveDimension:
    """ct_on_tower returns the zero class for m above the tower's dimension;
    the monomial-by-monomial evaluation it skips gives that class too."""

    def test_skipped_evaluation_is_zero(self):
        for tower, tangent, sheaves in tangent_sources():
            for m in (tower.dim + 1, tower.dim + 2):
                for F in sheaves:
                    sheaf = _sheaf_images(F, m)
                    images = {**_chern_images(tangent.total_chern(), m), **sheaf}
                    unguarded = evaluate_universal(universal_ct(m).numerator, tower, images)
                    assert unguarded == tower.zero_chow(), (tower, m)
                    assert ct_on_tower(tower, tangent, sheaf, m) == unguarded

    def test_non_integral_mutation_still_raises(self):
        # the mutation is checked when universal_ct(m) is built, before the
        # degree check
        p1 = Tower([[()] * 2])
        set_mutation(Mutation("ct", 2, 0, Fraction(1, 2)))
        try:
            with pytest.raises(FalsificationError):
                ct_on_tower(p1, p1.tangent_class(), _sheaf_images(p1.line((1,)), 2), 2)
        finally:
            set_mutation(None)


class TestTangentChern:
    """c(tangent) is built once per tower and tangent class, and equals the
    factor-by-factor product."""

    def test_cached_class_is_the_total_chern_class(self):
        for tower, tangent, sheaves in tangent_sources():
            cached = _tangent_chern(tangent)
            assert cached == tangent.total_chern() == factor_total_chern(tangent)
            key = ("tangent-chern", frozenset(tangent.line_terms.items()))
            assert tower._cache[key] is cached
            assert _tangent_chern(KClass(tower, dict(tangent.line_terms))) is cached

    def test_one_total_chern_per_tangent(self, monkeypatch):
        calls = []
        total_chern = KClass.total_chern

        def counted(self):
            calls.append(frozenset(self.line_terms.items()))
            return total_chern(self)

        monkeypatch.setattr(KClass, "total_chern", counted)
        t = Tower([[(), (), ()], [(0,), (1,)]])
        tangent = frozenset(t.tangent_class().line_terms.items())
        sheaf = _sheaf_images(t.structure_sheaf(), t.dim)
        calls.clear()
        for m in range(1, t.dim + 1):
            ct_on_tower(t, t.tangent_class(), sheaf, m)
            _todd_part(t, m)
        assert calls == [tangent]


def main_theorem_sides(f, F, n):
    """Every side the full path of check_main_theorem compares, by hand."""
    pushed, source = _instance_images(f, F, n)
    sides = list(grr_error(f, n, pushed, source))
    if f.relative_dimension >= 0:
        s_n = evaluate_universal(universal_chern_character(n).numerator, f.target, pushed)
        sides += corollary_sides(f, n, s_n, source)
        sides.append(decomposition_rhs(f, n, pushed, s_n))
    return sides


class TestMainTheoremAboveTheBase:
    """CH^n(S) = 0 for n > dim S: check_main_theorem pushes nothing forward,
    builds no Chern class and multiplies nothing, and reports the zero class
    against itself, as the full path would."""

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def spy(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(KClass, "total_chern", spy("total_chern", KClass.total_chern))
        monkeypatch.setattr(grr, "pushforward_k", spy("pushforward_k", grr.pushforward_k))
        monkeypatch.setattr(ChowClass, "__mul__", spy("mul", ChowClass.__mul__))
        return calls

    @pytest.mark.parametrize(
        "name, bases", [(name, bases) for name, _, bases in MODEL_TOWERS],
        ids=[name for name, _, _ in MODEL_TOWERS],
    )
    def test_no_work_above_the_base(self, name, bases, monkeypatch):
        tower = model_tower(name)
        F = tower.line(tuple(range(1, tower.n_levels + 1)))
        for base in bases:
            f = MorphismDatum(tower, base, f"{name}->prefix{base}")
            n = f.target.dim + 1
            assert all(side.is_zero() for side in main_theorem_sides(f, F, n))
            calls = self.counted(monkeypatch)
            reports = check_main_theorem(f, F, n, "F")
            assert calls == []
            instance = f"{name}->prefix{base}/sheaf=F/n={n}"
            shapes = ["main-theorem", "main-theorem-corollary", "main-theorem-decomposition"]
            assert [(r.identity, r.instance, r.lhs, r.rhs, r.verdict) for r in reports] == [
                (shape, instance, "", "", "pass") for shape in shapes
            ]
            # at n <= dim S the instance pushes F forward and builds its classes
            for m in range(n):
                all_pass(check_main_theorem(f, F, m, "F"))
                assert {"pushforward_k", "total_chern", "mul"} <= set(calls), m
                calls.clear()
            monkeypatch.undo()

    def test_non_integral_mutation_raises_above_the_base(self):
        # ct_{d+n} is read before the zero reports, as the full path reads it
        p1p1 = model_tower("P1xP1")
        f = MorphismDatum(p1p1, 1, "P1xP1->prefix1")
        for kind, degree in (("ct", 2), ("ct", 3), ("ch", 2), ("todd", 2)):
            set_mutation(Mutation(kind, degree, 0, Fraction(1, 2)))
            try:
                with pytest.raises(FalsificationError) as raised:
                    check_main_theorem(f, p1p1.line((0, 1)), 2)
            finally:
                set_mutation(None)
            assert raised.value.identity == f"integrality:{kind}"
            assert raised.value.instance == f"degree {degree}"


class TestCheckMainTheorem:
    def test_tower_cache_follows_the_mutation(self):
        p4 = Tower([[()] * 5])
        f = MorphismDatum(p4, 0, "P4->pt")
        all_pass(check_main_theorem(f, p4.structure_sheaf(), 0))
        set_mutation(Mutation("todd", 4, 0, Fraction(1)))
        try:
            reports = check_main_theorem(f, p4.structure_sheaf(), 0)
        finally:
            set_mutation(None)
        assert any(r.verdict != "pass" for r in reports)
        all_pass(check_main_theorem(f, p4.structure_sheaf(), 0))

    def test_todd_mutation_reaches_the_memoised_todd_parts(self):
        # a Todd mutation moves ct and the Todd parts alike, so the report's
        # two sides agree under it; against the clean left side it must fail
        t = Tower([[(), (), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1, "bundle->P2")
        n = 2
        pushed, source = _instance_images(f, t.line((1, 1)), n)
        clean, _ = grr_error(f, n, pushed, source)
        s_n = evaluate_universal(universal_chern_character(n).numerator, f.target, pushed)
        assert decomposition_rhs(f, n, pushed, s_n) == clean
        for j in range(1, n + 1):
            set_mutation(Mutation("todd", j, 0, Fraction(1)))
            try:
                mutated = decomposition_rhs(f, n, pushed, s_n)
                mutated_lhs, _ = grr_error(f, n, pushed, source)
            finally:
                set_mutation(None)
            assert mutated != clean, j
            assert mutated == mutated_lhs, j
            assert decomposition_rhs(f, n, pushed, s_n) == clean, j

    def test_bundles_over_bases(self):
        cases = [
            (Tower([[(), ()], [(0,), (1,)]]), 1, (0, 1)),
            (Tower([[(), (), ()], [(0,), (0,)]]), 1, (1, -2)),
        ]
        for tower, base, coeffs in cases:
            f = MorphismDatum(tower, base)
            for n in range(0, 3):
                all_pass(check_main_theorem(f, tower.line(coeffs), n))

    def test_vci_over_base(self):
        t = Tower([[()] * 4, [(0,)] * 3])
        z = VirtualCompleteIntersection(t, ((1, 0),))
        f = MorphismDatum(z, 1, "hyperplane->P3")
        for n in range(0, 3):
            all_pass(check_main_theorem(f, t.structure_sheaf(), n))


class TestEulerConsistency:
    def test_chow_equals_k_side(self):
        towers = [
            Tower([[()] * 3]),
            Tower([[()] * 5]),
            Tower([[(), ()], [(0,), (1,)]]),
            Tower([[(), (), ()], [(0,), (1,), (2,)]]),
        ]
        for t in towers:
            for coeffs in [(0,) * t.n_levels, (1,) * t.n_levels, (-1, 2)[: t.n_levels]]:
                F = t.line(tuple(coeffs))
                assert euler_characteristic_via_chow(t, F) == Fraction(
                    euler_characteristic(F)
                )

    def test_chow_degree(self):
        p2 = Tower([[()] * 3])
        h = p2.hyperplane(1)
        assert chow_degree(h * h) == 1
        assert chow_degree(h) == 0

    def test_exact_scalars_never_floats(self):
        exact = {int, Fraction}
        p2 = Tower([[()] * 3])
        h = p2.hyperplane(1)
        assert type(chow_degree(h * h)) in exact and type(chow_degree(h)) in exact
        chi = euler_characteristic_via_chow(p2, p2.line((1,)))
        assert type(chi) in exact and str(chi) == "3"
        # the rational series parts the tests' rational_grr_cross_check evaluates
        p4 = Tower([[()] * 5])
        F = p4.line((1,)) + p4.line((3,))
        ch = evaluate_universal(
            universal_chern_character(2).series_part, p4, _sheaf_images(F, 2)
        )
        for alpha in (ch, ch * ch, ch.scale(3), ch.scale(Fraction(1, 3))):
            assert {type(c) for c in alpha.terms.values()} <= exact, alpha
        # ch_2(F) = 5 h^2 and its square are integral, so stored as int; a
        # value that is not an integer stays a Fraction
        assert {type(c) for c in (ch * ch).terms.values()} == {int}
        assert {type(c) for c in ch.scale(Fraction(1, 3)).terms.values()} == {Fraction}


class TestImmersion:
    def test_hyperplane_in_p3(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,),))
        for n in range(0, 4):
            all_pass(check_immersion(p3, z, p3.structure_sheaf(), n))

    def test_linear_line_in_p3_with_twist(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (1,)))
        for n in range(0, 4):
            all_pass(check_immersion(p3, z, p3.line((1,)), n))

    def test_character_vanishes_below_codim(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (1,)))
        reports = check_immersion(p3, z, p3.structure_sheaf(), 1)
        below = [
            r
            for r in reports
            if r.identity == "immersion-character-pushforward"
            and r.instance.endswith("degree=1")
        ]
        assert below and all(r.lhs == "" for r in below)

    def test_shift_is_the_main_theorem_below_dimension_zero(self, monkeypatch):
        # every immersion-shift report is grr_error's d < 0 branch on the
        # immersion into the ambient, with the two sides swapped
        calls = []

        def spy(f, n, pushed, source):
            lhs, rhs = grr_error(f, n, pushed, source)
            calls.append((f, lhs, rhs))
            return lhs, rhs

        monkeypatch.setattr(grr, "grr_error", spy)
        reports = [r for r in suite_immersion() if r.identity == "immersion-shift"]
        assert len(reports) == len(calls) == 28
        for rep, (f, lhs, rhs) in zip(reports, calls):
            assert isinstance(f.source, VirtualCompleteIntersection)
            assert f == MorphismDatum(f.source, f.ambient.n_levels)
            assert f.target is f.ambient
            assert f.relative_dimension == -f.source.codim < 0
            assert (rep.lhs, rep.rhs) == (rhs.serialize(), lhs.serialize())
            assert rep.passed

    def test_wrong_tower_rejected(self):
        p3 = Tower([[()] * 4])
        other = Tower([[()] * 4])
        z = VirtualCompleteIntersection(other, ((1,),))
        with pytest.raises(InputError):
            check_immersion(p3, z, p3.structure_sheaf(), 1)


class TestDivisorCalculus:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_p3_single_and_double(self, m):
        p3 = Tower([[()] * 4])
        all_pass(check_divisor_calculus(p3, 1, 2, m))

    def test_k_side_square_example(self):
        # [O]-[O(-2h)] = 2([O]-[O(-h)]) - ([O]-[O(-h)])^2
        p3 = Tower([[()] * 4])
        u = p3.structure_sheaf() - p3.line((-1,))
        lhs = p3.structure_sheaf() - p3.line((-2,))
        rhs = u.scale(2) - u * u
        assert lhs == rhs


class TestKappa:
    def test_spec_values(self):
        rep1 = check_kappa_identity(1)
        assert rep1.passed and rep1.lhs == "1/1 kappa1^1"
        rep2 = check_kappa_identity(2)
        assert rep2.passed and rep2.lhs == ""
        rep3 = check_kappa_identity(3)
        assert rep3.passed and rep3.lhs == "-1/1 kappa3^1"

    def test_through_nine_against_bernoulli(self):
        for n in range(1, 10):
            rep = check_kappa_identity(n)
            assert rep.passed, (n, rep.discrepancy)
            if n % 2 == 1:
                m = (n + 1) // 2
                coeff = (
                    Fraction(todd_denominator(2 * m).value)
                    * bernoulli(2 * m)
                    / Fraction(
                        __import__("math").factorial(2 * m)
                    )
                )
                assert coeff.denominator == 1
                expected = f"{coeff}/1 kappa{n}^1" if coeff != 1 else f"1/1 kappa{n}^1"
                assert rep.lhs == expected


class TestSurfaceDeterminant:
    @pytest.mark.parametrize(
        "m,expected", [(0, 0), (1, 0), (2, -12), (3, -60), (4, -168), (5, -360), (6, -660)]
    )
    def test_exponents(self, m, expected):
        rep = check_surface_det_identity(m)
        assert rep.passed, rep.discrepancy
        assert rep.lhs.splitlines()[1] == f"exponent {expected}"
        assert expected == m * (6 * m - 4 * m * m - 2)

    def test_wc2_cancels(self):
        for m in range(0, 7):
            rep = check_surface_det_identity(m)
            assert rep.lhs.splitlines()[0] == "s_wc2 0"


class TestCompositionConsistency:
    def test_stepwise_assembly_matches_composite(self):
        # two-level tower X -> Y -> S=pt; both relative dimensions >= 0
        t = Tower([[(), (), ()], [(0,), (1,)]])
        y = t.prefix(1)
        composite = MorphismDatum(t, 0)
        top = MorphismDatum(t, 1)
        from grrcheck.geometry import pushforward_k, pushforward_chow
        from grrcheck.grr import ct_on_tower
        from grrcheck.arith import exact_ratio

        F = t.line((1, -1))
        n = 0
        d_f = top.relative_dimension
        d_g = y.dim
        # composite scalar factors exactly through the middle level
        total = exact_ratio(
            todd_denominator(d_f + d_g + n).value, todd_denominator(n).value
        )
        step1 = exact_ratio(
            todd_denominator(d_f + d_g + n).value, todd_denominator(d_g + n).value
        )
        step2 = exact_ratio(
            todd_denominator(d_g + n).value, todd_denominator(n).value
        )
        assert total == step1 * step2

        # pushing the source class through Y and then to S equals the direct push
        m = d_f + d_g + n
        src = _source_ct(composite, _sheaf_images(F, m), m, relative=False)
        assert pushforward_chow(src, 2) == pushforward_chow(pushforward_chow(src, 1), 1)

        # the middle-level identity scaled by step1 reproduces the composite side
        mid_pushed = pushforward_k(F, 1)
        mid_ct = ct_on_tower(y, y.tangent_class(), _sheaf_images(mid_pushed, d_g + n), d_g + n)
        lhs_via_middle = pushforward_chow(mid_ct.scale(step1), 1).scale(step2)
        lhs_direct, rhs_direct = main_sides(composite, F, n)
        assert lhs_via_middle == lhs_direct == rhs_direct


class TestDeterminantFormulaDegreeOne:
    def test_relative_curves_reproduce_cleared_determinant_formula(self):
        # d = 1 models: T_2 s_1(f_*F) =
        #   -rank(f_*F) (T_2/2) c1(T_S) + sum_m T_2/(m! T_{2-m}) f_*(s_m(F) Td-num_{2-m}(T_X))
        from grrcheck.geometry import pushforward_k, pushforward_chow
        from grrcheck.series import universal_todd
        from grrcheck.arith import exact_ratio
        from math import factorial

        towers = [
            Tower([[(), ()], [(0,), (0,)]]),
            Tower([[(), ()], [(0,), (1,)]]),
            Tower([[(), (), ()], [(0,), (2,)]]),
        ]
        t2 = todd_denominator(2).value
        for t in towers:
            base = t.prefix(1)
            c1_s = base.tangent_class().total_chern().graded_part(1)
            x_chern = _chern_images(t.tangent_class().total_chern(), 2)
            for coeffs in [(0,) * t.n_levels, (1, 1), (-1, 2), (2, -2)]:
                F = t.line(coeffs)
                pushed = pushforward_k(F, 1)
                lhs = evaluate_universal(
                    universal_chern_character(1).numerator,
                    base,
                    _sheaf_images(pushed, 1),
                ).scale(t2)
                rhs = c1_s.scale(Fraction(-pushed.rank() * t2, 2))
                for m in range(0, 3):
                    scalar = exact_ratio(
                        t2, factorial(m) * todd_denominator(2 - m).value
                    )
                    s_m = evaluate_universal(
                        universal_chern_character(m).numerator, t, _sheaf_images(F, m)
                    )
                    td_part = evaluate_universal(
                        universal_todd(2 - m).numerator, t, x_chern
                    )
                    rhs = rhs + pushforward_chow(s_m * td_part, 1).scale(scalar)
                assert lhs == rhs, (t, coeffs)


class TestHirzebruchConsistencyWideCoefficients:
    def test_dimension_at_most_four_with_coefficients_up_to_three(self):
        from itertools import product as iproduct

        towers = [
            Tower([[()] * 5]),
            Tower([[(), (), ()], [(0,), (0,), (0,)]]),
            Tower([[(), ()], [(0,), (2,)]]),
            Tower([[(), (), ()], [(0,), (1,), (2,)]]),
        ]
        for t in towers:
            for coeffs in iproduct(*(range(-3, 4) for _ in range(t.n_levels))):
                F = t.line(coeffs)
                assert euler_characteristic_via_chow(t, F) == Fraction(
                    euler_characteristic(F)
                ), (t, coeffs)


class TestFormalFibration:
    def test_unregistered_monomial_rejected(self):
        fib = FormalFibration.relative_surface()
        from grrcheck.poly import GradedPolynomial

        w = GradedPolynomial.variable(fib.fiber, fib.truncation, "w")
        stray = w.power(2)  # degree 2 >= d with no registered symbol
        with pytest.raises(InputError):
            fib.pushforward(stray)

    def test_low_degrees_killed(self):
        fib = FormalFibration.relative_curve(4)
        from grrcheck.poly import GradedPolynomial

        one = GradedPolynomial.constant(fib.fiber, fib.truncation, 5)
        assert fib.pushforward(one).is_zero()

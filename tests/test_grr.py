import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck.arith import bernoulli, todd_denominator
from grrcheck.geometry import (
    ChowClass,
    KClass,
    Tower,
    VirtualCompleteIntersection,
    euler_characteristic,
)
from grrcheck import grr, suites
from grrcheck.cli import _parse_mutation
from grrcheck.grr import (
    MorphismDatum,
    _fiber_ct,
    _instance_images,
    _sheaf_images,
    _source_relative_tangent,
    _tangent_chern,
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
from grrcheck.poly import Alphabet, GradedPolynomial
from grrcheck.report import FalsificationError
from grrcheck.series import (
    Mutation,
    q_poly,
    set_mutation,
    todd_inverse_numerator,
    universal_chern_character,
    universal_ct,
    universal_todd,
)
from grrcheck.suites import (
    MODEL_TOWERS,
    _euler_hirzebruch,
    _line_text,
    geometry_scope,
    main_theorem_reports,
    main_theorem_rows,
    model_tower,
    suite_divisor_calculus,
    suite_immersion,
    suite_main_theorem,
)

from chern_reference import factor_total_chern
from chow_reference import chow_class
from rational_reference import rational_grr_cross_check, substitute_on_tower
from substitution_reference import substitute_terms


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
            assert lhs.serialize() == rhs.serialize()
            # chi(P^d, O) = 1, so the common value is the Todd denominator
            assert lhs.serialize() == f"{todd_denominator(d).value}/1"

    def test_identity_morphism(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        f = MorphismDatum(t, t.n_levels, "id")
        for n in range(0, 3):
            lhs, rhs = main_sides(f, t.line((1, -1)), n)
            assert lhs.serialize() == rhs.serialize()

    def test_morphism_geometry_is_fixed_at_construction(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        z = VirtualCompleteIntersection(t, ((1, 1),))
        for source, d in ((t, 1), (z, 0)):
            f = MorphismDatum(source, 1)
            assert (f.ambient, f.target, f.relative_dimension) == (t, t.prefix(1), d)

    def test_negative_relative_dimension_routes_through_shift(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,),))
        f = MorphismDatum(z, 1, "hyperplane->P3")
        for n in range(0, 4):
            lhs, rhs = main_sides(f, p3.structure_sheaf(), n)
            assert lhs.serialize() == rhs.serialize(), n

    def test_corollary_and_decomposition(self):
        t = Tower([[(), (), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1, "bundle->P2")
        F = t.line((1, 1))
        for n in range(0, 3):
            pushed, source = _instance_images(f, F, n)
            s_n = evaluate_universal(universal_chern_character(n), f.target, sheaf=pushed)
            cl, cr = corollary_sides(f, n, s_n, source)
            assert cl.serialize() == cr.serialize(), n
            dl, _ = grr_error(f, n, pushed, source)
            dr = decomposition_rhs(f, n, pushed, s_n)
            assert dl.serialize() == dr.serialize(), n

    def test_rational_shadow(self):
        t = Tower([[(), ()], [(0,), (2,)]])
        f = MorphismDatum(t, 1)
        for coeffs in [(0, 0), (1, -1), (-2, 2)]:
            assert rational_grr_cross_check(f, t.line(coeffs), 1)

    @pytest.mark.parametrize(
        "text,cuts",
        [
            ("P(trivial 3) over P(trivial 4) over point", ((1, 0),)),
            ("P(trivial 3) over P(trivial 4) over point", ((1, 1),)),
            ("P(trivial 3) over P(trivial 4) over point", ((2, 1),)),
            ("P(trivial 3) over P(trivial 4) over point", ((1, 0), (0, 1))),
            ("P(trivial 4) over point", ((2,),)),
            ("P(trivial 4) over point", ((1,), (2,))),
            ("P([0, xi1]) over P(trivial 3) over point", ((0, 1),)),
            ("P([0, xi1]) over P(trivial 3) over point", ((1, 1),)),
        ],
    )
    def test_rational_shadow_on_cut_outs(self, text, cuts):
        # every twist in [-2, 2]^k, every base the cut-out lies over (d >= 0)
        # and every n <= dim S: the classes pushed through z.push and the
        # Koszul class agree with rational Riemann-Roch on the locus
        t = geometry_scope(text).tower
        z = VirtualCompleteIntersection(t, cuts)
        checked = 0
        for base in range(t.n_levels):
            f = MorphismDatum(z, base)
            if f.relative_dimension < 0:
                continue
            for coeffs in product(range(-2, 3), repeat=t.n_levels):
                for n in range(f.target.dim + 1):
                    assert rational_grr_cross_check(f, t.line(coeffs), n), (base, coeffs, n)
                    checked += 1
        assert checked

    def test_twisting_stability(self):
        # once the identity holds for F, it holds for F twisted by a pullback
        t = Tower([[(), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1)
        F = t.line((0, 1))
        for n in range(0, 2):
            l0, r0 = main_sides(f, F, n)
            assert l0.serialize() == r0.serialize()
            lt, rt = main_sides(f, F.twist((2, 0)), n)
            assert lt.serialize() == rt.serialize()


class TestCtClass:
    def test_degree_zero_is_rank_times_fundamental_class(self):
        p2 = Tower([[()] * 3])
        f = p2.line((1,)) + p2.structure_sheaf().scale(2)
        value = ct_on_tower(p2, p2.tangent_class(), _sheaf_images(f, 0), 0)
        assert value.serialize() == p2.unit_chow().scale(3).serialize()

    def test_degree_one_structure_sheaf_on_line(self):
        p1 = Tower([[()] * 2])
        value = ct_on_tower(p1, p1.tangent_class(), _sheaf_images(p1.structure_sheaf(), 1), 1)
        assert value.serialize() == p1.hyperplane(1).scale(2).serialize()

    def test_relative_on_trivial_family_matches_fiber(self):
        # fiberwise tangent difference of a product equals the fiber's
        # tangent, so relative and fiber-absolute classes agree
        t = Tower([[(), ()], [(0,), (0,), (0,)]])  # plane fibers over a line
        f = MorphismDatum(t, 1)
        rel = _source_relative_tangent(f)
        expected_c1 = t.hyperplane(2).scale(3)
        assert rel.total_chern().graded_part(1).serialize() == expected_c1.serialize()
        c2 = (t.hyperplane(2) * t.hyperplane(2)).scale(3)
        assert rel.total_chern().graded_part(2).serialize() == c2.serialize()
        value = ct_on_tower(t, rel, _sheaf_images(t.structure_sheaf(), 2), 2)
        absolute_fiber = (t.hyperplane(2) * t.hyperplane(2)).scale(12)
        # twelve times the fiber point class
        assert value.serialize() == absolute_fiber.serialize()


def two_pass(uc, tower, c_side, sheaf):
    """A universal class on the tower by two substitution passes over its
    monomials, the c_i of the c-side first and then every other variable,
    with no cache and no degree rule."""
    numerator = uc.numerator
    names = numerator.alphabet.names()
    chern = [name for name in names if name[0] == "c" and name[1:].isdigit()]
    rest = [name for name in names if name not in chern]
    total = c_side.total_chern() if chern else None
    images = {name: total.graded_part(int(name[1:])) for name in chern}
    partial = substitute_terms(numerator.terms, names, images, tower.unit_chow(), keep=rest)
    grouped = substitute_terms(partial, rest, sheaf, tower.unit_chow())
    return grouped.get((), tower.zero_chow())


def random_class(rng, tower, degree):
    """A nonzero class of the given degree (at most the dimension)."""
    basis = [
        mono for mono in product(*(range(r + 1) for r in tower.ranks)) if sum(mono) == degree
    ]
    terms = {mono: rng.randint(-3, 3) for mono in rng.sample(basis, rng.randint(1, len(basis)))}
    terms[rng.choice(basis)] = rng.choice([-2, -1, 1, 2])
    return chow_class(tower, terms)  # basis terms, one of them nonzero


def sheaf_map(rng, tower, m, rank, live):
    """A sheaf map with the given rank whose cp_i are nonzero exactly for i in live."""
    images = {"r": rank}
    for i in range(1, m + 1):
        images[f"cp{i}"] = random_class(rng, tower, i) if i in live else tower.zero_chow()
    return images


def assert_compiled_matches(uc, tower, c_side, sheaf):
    compiled = evaluate_universal(uc, tower, c_side, sheaf)
    assert compiled.serialize() == two_pass(uc, tower, c_side, sheaf).serialize(), (
        uc.degree, tower, sheaf
    )


KINDS = ("ct", "todd", "ch", "q", "toddinv")


def random_sheaves(rng, tower, m):
    """Sheaf maps up to degree m at ranks 0, -2 and 3, with all, none and a
    random set of the cp_i of degree at most the dimension nonzero."""
    degrees = list(range(1, min(m, tower.dim) + 1))
    for rank in (0, -2, 3):
        for k in {0, len(degrees), rng.randint(0, len(degrees))}:
            yield sheaf_map(rng, tower, m, rank, set(rng.sample(degrees, k)))


def normal_sources(rng):
    """(tower, normal class) of cut-outs by one and by two random nonzero
    divisors on the model towers, each a new top over its shared base, so
    its caches start cold."""
    for _, text, _ in MODEL_TOWERS:
        t = Tower(geometry_scope(text).tower.levels)
        for codim in range(1, min(2, t.dim) + 1):
            cuts = []
            while len(cuts) < codim:
                cut = tuple(rng.randint(-2, 2) for _ in range(t.n_levels))
                if any(cut):
                    cuts.append(cut)
            yield t, VirtualCompleteIntersection(t, tuple(cuts)).normal_class()


def kind_inputs(kind, rng, degrees):
    """(uc, tower, c_side, sheaf) of one universal kind at every degree that
    degrees(tower) lists: Todd and ct at every c-side of tangent_sources, ch
    and ct at random sheaf maps and the K-class ones, Q_m with x a random
    divisor class or zero, and the inverse Todd numerators at the normal
    class of a cut-out, degrees counted from the codimension."""
    if kind == "toddinv":
        for tower, normal in normal_sources(rng):
            r = normal.rank()
            for m in degrees(tower):
                yield todd_inverse_numerator(m + r, r), tower, normal, {}
        return
    for tower, tangent, sheaves in tangent_sources():
        for m in degrees(tower):
            if kind == "todd":
                yield universal_todd(m), tower, tangent, {}
            elif kind == "q" and m >= 1:
                for x in (random_class(rng, tower, 1), tower.zero_chow()):
                    yield q_poly(m), tower, tangent, {"x": x}
            elif kind in ("ct", "ch"):
                uc = universal_ct(m) if kind == "ct" else universal_chern_character(m)
                maps = list(random_sheaves(rng, tower, m))
                maps += [_sheaf_images(F, m) for F in sheaves]
                for sheaf in maps:
                    yield uc, tower, tangent, sheaf


class TestCompiledCt:
    """evaluate_universal's Horner scheme per (class, c-side, rank, live
    sheaf classes) against two_pass, for every universal kind."""

    def test_catalogue_towers_seeded(self):
        rng = random.Random(7)
        for _, text, _ in MODEL_TOWERS:
            tower = geometry_scope(text).tower
            h = tower.line((1,) + (0,) * (tower.n_levels - 1))
            tangents = [tower.tangent_class(), tower.tangent_class() - h]
            for m in range(0, 6):
                degrees = list(range(1, min(m, tower.dim) + 1))
                for rank in (0, -2, 1, 3):
                    for k in range(0, min(4, len(degrees)) + 1):
                        live = set(rng.sample(degrees, k))
                        sheaf = sheaf_map(rng, tower, m, rank, live)
                        for tangent in tangents:
                            assert_compiled_matches(universal_ct(m), tower, tangent, sheaf)

    def test_sheaves_of_every_rank_sign(self):
        for _, text, _ in MODEL_TOWERS:
            tower = geometry_scope(text).tower
            a = tower.line((1,) + (-1,) * (tower.n_levels - 1))
            b = tower.line((-2,) + (1,) * (tower.n_levels - 1))
            for F in (a - b, a.scale(-1) - b, a + b + tower.structure_sheaf(), b.scale(-3)):
                for m in range(0, 6):
                    sheaf = _sheaf_images(F, m)
                    assert_compiled_matches(universal_ct(m), tower, tower.tangent_class(), sheaf)

    def test_every_tangent_kind(self):
        # every universal kind, at every degree up to dim + 2 (so the degree
        # rule is crossed too): ct and Td at the absolute, fiberwise and
        # cut-out tangents, ct and ch at ranks 0, -2 and 3 on random and on
        # K-class sheaf maps, Q_m at a random or zero divisor, and the
        # inverse Todd numerators at the normal classes of random cut-outs
        rng = random.Random(11)
        for kind in KINDS:
            for uc, tower, c_side, sheaf in kind_inputs(kind, rng, lambda t: range(t.dim + 3)):
                assert_compiled_matches(uc, tower, c_side, sheaf)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(MODEL_TOWERS),
        st.sampled_from(KINDS),
        st.integers(0, 5),
        st.integers(-4, 4),
        st.data(),
    )
    def test_matches_two_pass_route(self, entry, kind, m, rank, data):
        tower = model_tower(entry[0])
        degrees = list(range(1, min(m, tower.dim) + 1))
        live = data.draw(st.sets(st.sampled_from(degrees), max_size=4) if degrees else st.just(set()))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        sheaf = sheaf_map(rng, tower, m, rank, live)
        tangent = tower.tangent_class()
        if kind == "ct":
            assert_compiled_matches(universal_ct(m), tower, tangent, sheaf)
        elif kind == "ch":
            assert_compiled_matches(universal_chern_character(m), tower, None, sheaf)
        elif kind == "todd":
            assert_compiled_matches(universal_todd(m), tower, tangent, {})
        elif kind == "q" and m >= 1:
            x = random_class(rng, tower, 1) if live else tower.zero_chow()
            assert_compiled_matches(q_poly(m), tower, tangent, {"x": x})
        elif kind == "toddinv":
            codim = data.draw(st.integers(1, min(2, tower.dim)))
            cuts = tuple((1 + i,) + (0,) * (tower.n_levels - 1) for i in range(codim))
            normal = VirtualCompleteIntersection(tower, cuts).normal_class()
            assert_compiled_matches(todd_inverse_numerator(m + codim, codim), tower, normal, {})


def tangent_sources():
    """(tower, tangent, sheaves) on the model towers, each a new top over its
    shared base so its caches start cold, with the absolute tangent and the
    fiberwise one over each base, plus a cut-out source: a hyperplane of the
    P3 factor in P3 x P2 with its virtual tangent and Koszul sheaves."""
    for _, text, bases in MODEL_TOWERS:
        t = Tower(geometry_scope(text).tower.levels)
        a = t.line((1,) + (-1,) * (t.n_levels - 1))
        b = t.line((-2,) + (1,) * (t.n_levels - 1))
        sheaves = [t.structure_sheaf(), a - b, b.scale(-3) + a]
        yield t, t.tangent_class(), sheaves
        for base in bases:
            if base:
                yield t, _source_relative_tangent(MorphismDatum(t, base)), sheaves
    t = Tower([[()] * 4, [(0,)] * 3])
    z = VirtualCompleteIntersection(t, ((1, 0),))
    sheaves = [z.koszul_class(t.structure_sheaf()), z.koszul_class(t.line((2, -1)))]
    yield t, z.tangent_class(), sheaves


class TestZeroAboveDimension:
    """evaluate_universal returns the zero class for every universal kind
    whose numerator's degree is above the tower's dimension; the
    monomial-by-monomial evaluation it skips gives that class too."""

    def test_skipped_evaluation_is_zero(self):
        rng = random.Random(17)
        for kind in KINDS:
            above = kind_inputs(kind, rng, lambda t: (t.dim + 1, t.dim + 2))
            for uc, tower, c_side, sheaf in above:
                unguarded = two_pass(uc, tower, c_side, sheaf)
                assert unguarded.is_zero(), (kind, tower, uc.degree)
                assert evaluate_universal(uc, tower, c_side, sheaf).is_zero()

    def test_non_integral_mutation_still_raises(self):
        # the mutation is checked when the class is built, before the degree
        # check: every kind above the line's dimension, ct_2 through ct_on_tower
        p1 = Tower([[()] * 2])
        readers = [
            ("ct", lambda: ct_on_tower(
                p1, p1.tangent_class(), _sheaf_images(p1.line((1,)), 2), 2
            )),
            ("ch", lambda: evaluate_universal(
                universal_chern_character(2), p1, sheaf=_sheaf_images(p1.line((1,)), 2)
            )),
            ("todd", lambda: evaluate_universal(universal_todd(2), p1, p1.tangent_class())),
            ("q", lambda: evaluate_universal(
                q_poly(2), p1, p1.tangent_class(), {"x": p1.hyperplane(1)}
            )),
            ("toddinv", lambda: evaluate_universal(
                todd_inverse_numerator(3, 1), p1, p1.line((1,)), {}
            )),
        ]
        for kind, read in readers:
            set_mutation(Mutation(kind, 3 if kind == "toddinv" else 2, 0, Fraction(1, 2)))
            try:
                with pytest.raises(FalsificationError) as raised:
                    read()
            finally:
                set_mutation(None)
            assert raised.value.identity == f"integrality:{kind}"


class TestTangentChern:
    """c(tangent) is built once per tower and tangent class, and equals the
    factor-by-factor product."""

    def test_cached_class_is_the_total_chern_class(self):
        for tower, tangent, sheaves in tangent_sources():
            cached = _tangent_chern(tangent)
            want = tangent.total_chern().serialize()
            assert cached.serialize() == want == factor_total_chern(tangent).serialize()
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
            evaluate_universal(universal_todd(m), t, t.tangent_class())
        assert calls == [tangent]


def main_theorem_sides(f, F, n):
    """Every side the full path of check_main_theorem compares, by hand."""
    pushed, source = _instance_images(f, F, n)
    sides = list(grr_error(f, n, pushed, source))
    if f.relative_dimension >= 0:
        s_n = evaluate_universal(universal_chern_character(n), f.target, sheaf=pushed)
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
                    check_main_theorem(f, p1p1.line((0, 1)), 2, "O(0,1)")
            finally:
                set_mutation(None)
            assert raised.value.identity == f"integrality:{kind}"
            assert raised.value.instance == f"degree {degree}"


class TestCheckMainTheorem:
    def test_tower_cache_follows_the_mutation(self):
        p4 = Tower([[()] * 5])
        f = MorphismDatum(p4, 0, "P4->pt")
        all_pass(check_main_theorem(f, p4.structure_sheaf(), 0, "O"))
        set_mutation(Mutation("todd", 4, 0, Fraction(1)))
        try:
            reports = check_main_theorem(f, p4.structure_sheaf(), 0, "O")
        finally:
            set_mutation(None)
        assert any(r.verdict != "pass" for r in reports)
        all_pass(check_main_theorem(f, p4.structure_sheaf(), 0, "O"))

    def test_failed_reports_name_the_passing_instances(self):
        # a check that fails by a FalsificationError is reported under the
        # identity and instance its passing reports carry
        clean = {(r.identity, r.instance) for r in suite_main_theorem()}
        set_mutation(Mutation("ct", 2, 0, Fraction(1, 2)))
        try:
            failed = [r for r in suite_main_theorem() if not r.passed]
        finally:
            set_mutation(None)
        assert failed
        assert {(r.identity, r.instance) for r in failed} <= clean
        assert {r.identity for r in failed} >= {"main-theorem", "euler-hirzebruch-consistency"}

    @pytest.mark.parametrize("suite", [suite_immersion, suite_divisor_calculus])
    @pytest.mark.parametrize("kind", ["ct", "ch"])
    def test_failed_geometry_reports_name_the_passing_instances(self, suite, kind):
        # run_check is handed the instance of the check's first report
        clean = {(r.identity, r.instance) for r in suite()}
        set_mutation(Mutation(kind, 2, 0, Fraction(1, 2)))
        try:
            failed = [r for r in suite() if not r.passed]
        finally:
            set_mutation(None)
        assert failed
        assert {(r.identity, r.instance) for r in failed} <= clean

    def test_every_check_runs_under_its_first_report(self, monkeypatch):
        # a falsification inside a check is reported under the identity and
        # instance run_check is given, so they must be the first clean report's
        runs = []
        run_check = suites.run_check

        def spy(identity, instance, check, *args):
            reports = run_check(identity, instance, check, *args)
            runs.append(((identity, instance), (reports[0].identity, reports[0].instance)))
            return reports

        monkeypatch.setattr(suites, "run_check", spy)
        for name, suite in suites.SUITES.items():
            if name in ("integrality", "series-identities"):
                all_pass(suite(4))
            elif name != "main-theorem":
                all_pass(suite())
        text = {name: text for name, text, _ in MODEL_TOWERS}["F1"]
        rows = [row for row in main_theorem_rows() if row[1] == text]
        all_pass(main_theorem_reports(geometry_scope(text), rows))
        assert len(runs) > len(rows)
        assert [given for given, first in runs if given != first] == []

    def test_todd_mutation_reaches_the_memoised_todd_parts(self):
        # a Todd mutation moves ct and the Todd parts alike, so the report's
        # two sides agree under it; against the clean left side it must fail
        t = Tower([[(), (), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1, "bundle->P2")
        n = 2
        pushed, source = _instance_images(f, t.line((1, 1)), n)
        clean, _ = grr_error(f, n, pushed, source)
        s_n = evaluate_universal(universal_chern_character(n), f.target, sheaf=pushed)
        assert decomposition_rhs(f, n, pushed, s_n).serialize() == clean.serialize()
        for j in range(1, n + 1):
            set_mutation(Mutation("todd", j, 0, Fraction(1)))
            try:
                mutated = decomposition_rhs(f, n, pushed, s_n)
                mutated_lhs, _ = grr_error(f, n, pushed, source)
            finally:
                set_mutation(None)
            assert mutated.serialize() != clean.serialize(), j
            assert mutated.serialize() == mutated_lhs.serialize(), j
            assert decomposition_rhs(f, n, pushed, s_n).serialize() == clean.serialize(), j

    def test_bundles_over_bases(self):
        cases = [
            (Tower([[(), ()], [(0,), (1,)]]), 1, (0, 1)),
            (Tower([[(), (), ()], [(0,), (0,)]]), 1, (1, -2)),
        ]
        for tower, base, coeffs in cases:
            f = MorphismDatum(tower, base, "bundle")
            for n in range(0, 3):
                all_pass(check_main_theorem(f, tower.line(coeffs), n, "F"))

    def test_vci_over_base(self):
        t = Tower([[()] * 4, [(0,)] * 3])
        z = VirtualCompleteIntersection(t, ((1, 0),))
        f = MorphismDatum(z, 1, "hyperplane->P3")
        for n in range(0, 3):
            all_pass(check_main_theorem(f, t.structure_sheaf(), n, "O"))


def main_theorem_on_p2_f1_and_twist():
    """main_theorem_reports at every base and n the main-theorem suite runs, on
    the suites' cached P2, F1 and P1;F;twist, for O(D) and O(D) + O(1,..,1)
    with D of coefficients in [-1, 1], each given as class text: the rank-2
    sums make cp_2 nonzero, which no line bundle does (ct:3:1:1 is the
    cp1*cp2 coefficient)."""
    reports = []
    for name, text, bases in MODEL_TOWERS:
        if name not in ("P2", "F1", "P1;F;twist"):
            continue
        tower = geometry_scope(text).tower
        ones = _line_text((1,) * tower.n_levels)
        sheaves = []
        for coeffs in product(range(-1, 2), repeat=tower.n_levels):
            line = _line_text(coeffs)
            sheaves += [(f"O{coeffs}", line), (f"O{coeffs}+O(1,..)", f"{line}+{ones}")]
        rows = [
            (f"{name}->prefix{base}", text, (), base, sheaves,
             range(0, min(3, tower.prefix(base).dim + 1) + 1))
            for base in bases
        ]
        reports += main_theorem_reports(geometry_scope(text), rows)
    return reports


class TestCacheFollowsEachMutation:
    """One universal kind at a time, in one process: a clean run, a mutated
    run with at least one failed report, and a clean run byte-identical to
    the first, all on the suites' cached towers, so no compiled class of one
    run may serve another."""

    @pytest.mark.parametrize(
        "spec, run",
        [
            ("ch:2:0:1", main_theorem_on_p2_f1_and_twist),
            ("todd:2:0:1", main_theorem_on_p2_f1_and_twist),
            ("ct:3:1:1", main_theorem_on_p2_f1_and_twist),
            ("q:2:0:1", suite_divisor_calculus),
            ("toddinv:3:0:1", suite_immersion),
        ],
        ids=["ch", "todd", "ct", "q", "toddinv"],
    )
    def test_clean_mutated_clean(self, spec, run):
        clean = run()
        all_pass(clean)
        set_mutation(_parse_mutation(spec))
        try:
            mutated = run()
        finally:
            set_mutation(None)
        assert any(not r.passed for r in mutated), spec
        assert [r.to_json() for r in run()] == [r.to_json() for r in clean]


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
        ch = substitute_on_tower(
            universal_chern_character(2).series_part, p4, _sheaf_images(F, 2)
        )
        for alpha in (ch, ch * ch, ch.scale(3), ch.scale(Fraction(1, 3))):
            assert {type(c) for c in alpha.terms.values()} <= exact, alpha
        # ch_2(F) = 5 h^2 and its square are integral, so stored as int; a
        # value that is not an integer stays a Fraction
        assert {type(c) for c in (ch * ch).terms.values()} == {int}
        assert {type(c) for c in ch.scale(Fraction(1, 3)).terms.values()} == {Fraction}


def _chi_projective_space(n: int, a: int) -> int:
    """chi(P^n, O(a)) = (a+1)(a+2)...(a+n)/n!, for every integer a."""
    return prod(range(a + 1, a + n + 1)) // factorial(n)


class TestEulerOnCutOuts:
    """The Chow-side Euler characteristic of a cut-out source against closed
    forms from the Koszul sequence, computed here and not by the engine."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 5 - m)])
    def test_milnor_hypersurfaces(self, m, n):
        # H_{m,n} is the (1,1) divisor in P^n x P^m, so on it
        # chi(O(a, b)) = chi_n(a) chi_m(b) - chi_n(a-1) chi_m(b-1)
        w = geometry_scope(f"P(trivial {m + 1}) over P(trivial {n + 1}) over point").tower
        h = VirtualCompleteIntersection(w, ((1, 1),))
        for a, b in product(range(-3, 4), repeat=2):
            F = w.line((a, b))
            expected = _chi_projective_space(n, a) * _chi_projective_space(m, b) - (
                _chi_projective_space(n, a - 1) * _chi_projective_space(m, b - 1)
            )
            assert euler_characteristic_via_chow(h, F) == expected, (a, b)
            assert euler_characteristic(h.koszul_class(F)) == expected, (a, b)

    def test_quadric_surface(self):
        p3 = geometry_scope("P(trivial 4) over point").tower
        quadric = VirtualCompleteIntersection(p3, ((2,),))
        for a in range(-3, 4):
            F = p3.line((a,))
            assert euler_characteristic_via_chow(quadric, F) == (a + 1) ** 2, a
            assert euler_characteristic(quadric.koszul_class(F)) == (a + 1) ** 2, a
            report = _euler_hirzebruch(quadric, F, f"quadric/O({a})")
            assert report.passed and report.lhs == str((a + 1) ** 2), report


class TestOneSourceType:
    def test_a_tower_is_wrapped_once(self):
        t = Tower([[(), ()], [(0,), (1,)]])
        f = MorphismDatum(t, 1)
        assert f.source == VirtualCompleteIntersection(t, ()) and f.ambient is t
        assert MorphismDatum(f.source, 1).source is f.source

    def test_tower_instances_do_no_unit_work(self, monkeypatch):
        # a tower is the cut-out with no cuts: its instances multiply by no
        # unit cut product, so they make exactly the Chow products of the
        # tower route that had no cut-out in it
        count = 0

        def spy(self, other, _mul=ChowClass.__mul__):
            nonlocal count
            count += 1
            return _mul(self, other)

        monkeypatch.setattr(ChowClass, "__mul__", spy)
        for m in range(8):
            universal_ct(m)
        t = Tower([[(), ()], [(0,), (1,)], [(1, -1), (0, 2)]])  # fresh caches
        F = t.line((1, -1, 2)) + t.line((0, 1, 0))
        for base in range(t.n_levels):
            for n in range(t.prefix(base).dim + 2):
                all_pass(check_main_theorem(MorphismDatum(t, base, "t"), F, n, "F"))
        assert count == 127
        euler_characteristic_via_chow(t, F)
        assert count == 134


class TestImmersion:
    def test_hyperplane_in_p3(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,),))
        for n in range(0, 4):
            all_pass(check_immersion(z, p3.structure_sheaf(), n, "P3"))

    def test_linear_line_in_p3_with_twist(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (1,)))
        for n in range(0, 4):
            all_pass(check_immersion(z, p3.line((1,)), n, "P3"))

    def test_character_vanishes_below_codim(self):
        p3 = Tower([[()] * 4])
        z = VirtualCompleteIntersection(p3, ((1,), (1,)))
        reports = check_immersion(z, p3.structure_sheaf(), 1, "P3")
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
            assert (f.base_levels, f.label) == (f.ambient.n_levels, "")
            assert f.target is f.ambient
            assert f.relative_dimension == -f.source.codim < 0
            assert (rep.lhs, rep.rhs) == (rhs.serialize(), lhs.serialize())
            assert rep.passed

    def test_wrong_tower_rejected(self):
        p3 = Tower([[()] * 4])
        other = Tower([[()] * 4])
        z = VirtualCompleteIntersection(other, ((1,),))
        with pytest.raises(AssertionError, match="classes live on different towers"):
            check_immersion(z, p3.structure_sheaf(), 1, "P3")


class TestDivisorCalculus:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_p3_single_and_double(self, m):
        p3 = Tower([[()] * 4])
        all_pass(check_divisor_calculus(p3, 1, 2, m, "P3"))

    def test_k_side_square_example(self):
        # [O]-[O(-2h)] = 2([O]-[O(-h)]) - ([O]-[O(-h)])^2, the square the
        # Koszul class of two hyperplane cuts
        p3 = Tower([[()] * 4])
        u = p3.structure_sheaf() - p3.line((-1,))
        lhs = p3.structure_sheaf() - p3.line((-2,))
        square = VirtualCompleteIntersection(p3, ((1,), (1,))).koszul_class(p3.structure_sheaf())
        rhs = u.scale(2) - square
        assert lhs.serialize() == rhs.serialize()


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
        src = ct_on_tower(t, t.tangent_class(), _sheaf_images(F, m), m)
        stepwise = pushforward_chow(pushforward_chow(src, 1), 1)
        assert pushforward_chow(src, 2).serialize() == stepwise.serialize()

        # the middle-level identity scaled by step1 reproduces the composite side
        mid_pushed = pushforward_k(F, 1)
        mid_ct = ct_on_tower(y, y.tangent_class(), _sheaf_images(mid_pushed, d_g + n), d_g + n)
        lhs_via_middle = pushforward_chow(mid_ct.scale(step1), 1).scale(step2)
        lhs_direct, rhs_direct = main_sides(composite, F, n)
        assert lhs_via_middle.serialize() == lhs_direct.serialize() == rhs_direct.serialize()


class TestDeterminantFormulaDegreeOne:
    def test_relative_curves_reproduce_cleared_determinant_formula(self):
        # d = 1 models: T_2 s_1(f_*F) =
        #   -rank(f_*F) (T_2/2) c1(T_S) + sum_m T_2/(m! T_{2-m}) f_*(s_m(F) Td-num_{2-m}(T_X))
        from grrcheck.geometry import pushforward_k, pushforward_chow
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
            for coeffs in [(0,) * t.n_levels, (1, 1), (-1, 2), (2, -2)]:
                F = t.line(coeffs)
                pushed = pushforward_k(F, 1)
                lhs = evaluate_universal(
                    universal_chern_character(1), base, sheaf=_sheaf_images(pushed, 1)
                ).scale(t2)
                rhs = c1_s.scale(Fraction(-pushed.rank() * t2, 2))
                for m in range(0, 3):
                    scalar = exact_ratio(
                        t2, factorial(m) * todd_denominator(2 - m).value
                    )
                    s_m = evaluate_universal(
                        universal_chern_character(m), t, sheaf=_sheaf_images(F, m)
                    )
                    td_part = evaluate_universal(universal_todd(2 - m), t, t.tangent_class())
                    rhs = rhs + pushforward_chow(s_m * td_part, 1).scale(scalar)
                assert lhs.serialize() == rhs.serialize(), (t, coeffs)


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


class TestFormalCorollaryShape:
    """f_* on a formal fibration is a coefficient read, so the fiber
    polynomial of each corollary must have no term besides the ones read:
    ct_{n+1}(O) on the relative curve is c K^(n+1) (c = 0 at even n, where
    kappa_expected is 0), and ct_3 on the relative surface, twisted by m w
    or not, has only w^3 and w c2f."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_relative_curve_is_one_power_of_k(self, n):
        minus_k = GradedPolynomial.variable(Alphabet([("K", 1)]), n + 1, "K").scale(-1)
        ct = _fiber_ct(n + 1, {1: minus_k}, 0)
        assert list(ct.terms) == ([(n + 1,)] if n % 2 else [])

    @pytest.mark.parametrize("m", [None, *range(0, 7)])
    def test_relative_surface_is_w3_and_w_c2f(self, m):
        fiber = Alphabet([("w", 1), ("c2f", 2)])
        w = GradedPolynomial.variable(fiber, 3, "w")
        tangent_chern = {1: -w, 2: GradedPolynomial.variable(fiber, 3, "c2f")}
        ct = _fiber_ct(3, tangent_chern, 0 if m is None else w.scale(m))
        assert not ct.is_zero() and set(ct.terms) <= {(3, 0), (1, 1)}

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from grrcheck.arith import todd_denominator
from grrcheck.poly import (
    GradedPolynomial,
    newton_power_sum,
    orbit_from_product,
    reduce_orbit_to_elementary,
    root_alphabet,
    weighted_alphabet,
)
from grrcheck.report import FalsificationError
from grrcheck.series import (
    Mutation,
    _PowerSumSeries,
    _power_sum_in_chern,
    apply_series,
    chern_character_oracle,
    ct_oracle,
    exp_series,
    q_oracle,
    q_poly,
    set_mutation,
    sheaf_alphabet,
    tangent_alphabet,
    todd_inverse_numerator,
    todd_inverse_oracle,
    todd_inverse_root_series,
    todd_root_series,
    todd_series_oracle,
    universal_chern_character,
    universal_ct,
    universal_todd,
)
from grrcheck import identities
from grrcheck.identities import IDENTITY_CHECKS, howe_claims, howe_reduce
from grrcheck.suites import suite_integrality, suite_projective_bundle

from rational_reference import q_numerator_reference
from series_reference import series_log
from symmetric_reference import brute_force_todd, howe_reduce_by_roots


class TestUniversalTodd:
    def test_paper_displayed_series(self):
        # 1 + c1/2 + (c1^2+c2)/12 + c1*c2/24 + ...
        td1 = universal_todd(1)
        assert td1.series_part.coefficient(c1=1) == Fraction(1, 2)
        assert td1.numerator.coefficient(c1=1) == 1 and td1.scale == 2

        td2 = universal_todd(2)
        assert td2.series_part.coefficient(c1=2) == Fraction(1, 12)
        assert td2.series_part.coefficient(c2=1) == Fraction(1, 12)
        assert td2.numerator.serialize() == "1/1 c2^1\n1/1 c1^2"
        assert td2.scale == 12

        td3 = universal_todd(3)
        assert td3.numerator.serialize() == "1/1 c1^1 c2^1"
        assert td3.scale == 24

    def test_degree_zero(self):
        td0 = universal_todd(0)
        assert td0.numerator.coefficient() == 1 and td0.scale == 1

    def test_against_brute_force(self):
        for m in range(1, 6):
            brute = brute_force_todd(m, m)
            got = universal_todd(m).series_part
            assert brute.embed(got.alphabet) == got, m

    def test_stability(self):
        # m roots suffice in degree m: more roots add no degree-m term
        for m in range(1, 7):
            base = universal_todd(m).series_part
            for extra in (1, 2):
                more = brute_force_todd(m, m + extra)
                assert base.embed(more.alphabet) == more, (m, extra)

    def test_integrality_certified(self):
        for m in range(0, 13):
            uc = universal_todd(m)
            assert uc.numerator.is_integral()
            assert uc.numerator == uc.series_part.scale(uc.scale)
            assert uc.scale == todd_denominator(m).value

    def test_homogeneity(self):
        for m in range(1, 9):
            numerator = universal_todd(m).numerator
            assert all(key >> numerator.alphabet.shift == m for key in numerator.packed)


def fraction_elimination(orbit, n_roots, alphabet, degree, scale, offset=1):
    """(numerator, series part) by eliminating the rational degree-`degree`
    orbit and scaling the result, e-index i at exponent position i - offset."""
    graded = {lam: c for lam, c in orbit.items() if sum(lam) == degree}
    terms = {}
    for eta, c in reduce_orbit_to_elementary(graded, n_roots).items():
        vec = [0] * len(alphabet)
        for i in eta:
            vec[i - offset] += 1
        terms[tuple(vec)] = c
    series = GradedPolynomial(alphabet, degree, terms)
    return series.scale(scale), series


class TestIntegerElimination:
    """The classes eliminate scale * orbit over the integers; the result must
    be what eliminating the rational orbit and scaling afterwards gives."""

    @staticmethod
    def check(uc, reference):
        numerator, series = reference
        assert uc.numerator == numerator and uc.series_part == series
        assert uc.numerator.truncation == numerator.truncation
        assert uc.series_part.truncation == series.truncation
        assert all(type(c) is int for c in uc.numerator.terms.values())

    def test_todd(self):
        for m in range(0, 14):
            n = max(m, 1)
            orbit = orbit_from_product(todd_root_series(m), n, m, 1)
            scale = todd_denominator(m).value
            ref = fraction_elimination(orbit, n, tangent_alphabet(m), m, scale)
            self.check(universal_todd(m), ref)

    def test_chern_character(self):
        for m in range(1, 14):
            orbit = {(k,): Fraction(1, factorial(k)) for k in range(1, m + 1)}
            ref = fraction_elimination(orbit, m, sheaf_alphabet(m), m, factorial(m), offset=0)
            self.check(universal_chern_character(m), ref)

    def test_todd_inverse(self):
        for r in range(1, 5):
            for m in range(r, 11):
                deg = m - r
                orbit = orbit_from_product(todd_inverse_root_series(deg), r, deg, 1)
                ref = fraction_elimination(orbit, r, weighted_alphabet("c", r), deg, factorial(m))
                self.check(todd_inverse_numerator(m, r), ref)

    def test_perturbed_root_series_fails_certification(self, monkeypatch):
        from grrcheck import series

        def perturbed(n):
            coeffs = todd_root_series(n)
            coeffs[n] += Fraction(1, 1000003)  # a prime no T_m contains
            return coeffs

        monkeypatch.setattr(series, "todd_root_series", perturbed)
        monkeypatch.setattr(series, "_CACHE", {})
        with pytest.raises(FalsificationError) as info:
            universal_todd(4)
        assert info.value.identity == "integrality:todd"


class TestHomogeneityAllFamilies:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_weighted_degree_is_constant(self, m):
        # the rank variable has weight 0, so every term still sits in degree m
        families = [
            ("todd", universal_todd(m)),
            ("ch", universal_chern_character(m)),
            ("ct", universal_ct(m)),
            ("q", q_poly(m)),
        ]
        for r in range(1, min(m, 4) + 1):
            families.append((f"toddinv rank {r}", todd_inverse_numerator(m, r)))
        for label, uc in families:
            degrees = {key >> uc.numerator.alphabet.shift for key in uc.numerator.packed}
            assert len(degrees) <= 1, (label, m, degrees)

    def test_oracle_route_agrees(self):
        for m in range(0, 13):
            assert todd_series_oracle(m) == universal_todd(m).numerator, m

    def test_each_part_of_each_series_built_once(self, monkeypatch):
        # across the integrality suite every part G_d of the Todd series and
        # of each inverse-Todd rank is built once, however often its degree
        # is read (ct and Q read every Todd degree below theirs)
        from grrcheck import series

        built = Counter()
        inner = series._PowerSumSeries._part

        def counting(self, d):
            built[self.n_vars, d] += 1
            return inner(self, d)

        monkeypatch.setattr(series._PowerSumSeries, "_part", counting)
        monkeypatch.setattr(series, "_TODD_SERIES", _PowerSumSeries(todd_root_series))
        monkeypatch.setattr(series, "_TODD_INVERSE_SERIES", {})
        todd_series_oracle.cache_clear()
        try:
            reports = suite_integrality(13)
        finally:
            todd_series_oracle.cache_clear()
        assert all(r.passed for r in reports)
        todd = {(None, d): 1 for d in range(0, 14)}
        inverse = {(r, d): 1 for r in range(1, 5) for d in range(0, 12 - r)}
        assert built == todd | inverse

    def test_degrees_read_out_of_order_equal_fresh_builds(self, monkeypatch):
        from grrcheck import series

        def refuse(*args):
            raise AssertionError("the power-sum route ran the elimination route")

        # every read below runs with the elimination route switched off
        monkeypatch.setattr(series, "orbit_from_product", refuse)
        monkeypatch.setattr(series, "reduce_orbit_to_elementary", refuse)
        reads = []  # (read from the shared series, fresh build, class builder, its args)
        todd = _PowerSumSeries(todd_root_series)
        for m in (13, 5, 14, 0, 14, 9):
            tm = todd_denominator(m).value
            fresh = _PowerSumSeries(todd_root_series).read(m, tm)
            reads.append((todd.read(m, tm), fresh, universal_todd, (m,)))
        ranks = {}
        for m, r in [(9, 3), (4, 1), (12, 3), (6, 4), (5, 3), (13, 1), (4, 4), (11, 2)]:
            shared = ranks.setdefault(r, _PowerSumSeries(todd_inverse_root_series, r))
            fresh = _PowerSumSeries(todd_inverse_root_series, r).read(m - r, factorial(m))
            reads.append((shared.read(m - r, factorial(m)), fresh, todd_inverse_numerator, (m, r)))
        monkeypatch.undo()
        for got, fresh, builder, args in reads:
            assert got == fresh and got.alphabet is fresh.alphabet, args
            assert got.truncation == fresh.truncation == builder(*args).numerator.truncation
            assert all(type(c) is int for p in (got, fresh) for c in p.packed.values()), args
            assert got == builder(*args).numerator, args

    def test_parts_are_append_only(self):
        # a read of any degree leaves every part built before it, and its s_d,
        # as they were: the same objects, the same normalisations
        def reads(series, degrees, scale):
            seen = []
            for m in degrees:
                series.read(m, scale(m))
                for d, (part, s_d) in enumerate(seen):
                    assert series.parts[d] is part and series.scales[d] == s_d, (m, d)
                seen = list(zip(series.parts, series.scales))
                assert all(type(c) is int for p in series.parts for c in p.packed.values())
            return seen

        todd = reads(
            _PowerSumSeries(todd_root_series), (13, 5, 14, 0, 20), lambda m: todd_denominator(m).value
        )
        assert [part.alphabet for part, _ in todd] == [weighted_alphabet("c", d) for d in range(21)]
        for r in (3, 1, 4, 2):
            rank = reads(
                _PowerSumSeries(todd_inverse_root_series, r), (6, 2, 9, 0, 11), factorial
            )
            assert {part.alphabet for part, _ in rank} == {weighted_alphabet("c", r)}


class TestChernCharacter:
    def test_paper_displayed_series(self):
        ch0 = universal_chern_character(0)
        assert ch0.numerator.coefficient(r=1) == 1

        s2 = universal_chern_character(2)
        assert s2.numerator.coefficient(cp1=2) == 1
        assert s2.numerator.coefficient(cp2=1) == -2

        s3 = universal_chern_character(3)
        assert s3.numerator.coefficient(cp1=3) == 1
        assert s3.numerator.coefficient(cp1=1, cp2=1) == -3
        assert s3.numerator.coefficient(cp3=1) == 3

    def test_power_sum_identity(self):
        for m in range(1, 11):
            # over r, cp1..cpm: the rank's exponent 0, then p_m's in e1..em
            newton = newton_power_sum(m).terms
            assert universal_chern_character(m).numerator.terms == {
                (0,) + e: c for e, c in newton.items()
            }

    def test_oracle_route_agrees(self):
        for m in range(0, 13):
            assert chern_character_oracle(m) == universal_chern_character(m).numerator

    def test_scale(self):
        for m in range(1, 13):
            assert universal_chern_character(m).scale == factorial(m)


class TestCombinedClass:
    def test_low_degrees(self):
        assert universal_ct(0).numerator.coefficient(r=1) == 1
        ct1 = universal_ct(1)
        assert ct1.numerator.coefficient(r=1, c1=1) == 1
        assert ct1.numerator.coefficient(cp1=1) == 2

    def test_trivial_sheaf_specialization(self):
        # rank 1, cp = 0 collapses to the Todd numerator
        for m in range(0, 7):
            ct = universal_ct(m)
            td = universal_todd(m)
            target = td.numerator.alphabet if m else ct.numerator.alphabet
            images = {"r": Fraction(1)}
            for i in range(1, m + 1):
                images[f"cp{i}"] = Fraction(0)
                images[f"c{i}"] = GradedPolynomial.variable(target, m, f"c{i}")
            spec = ct.numerator.substitute(images, target)
            expected = td.numerator if m else GradedPolynomial.constant(target, 0, 1)
            assert spec == expected, m

    def test_integrality(self):
        for m in range(0, 11):
            uc = universal_ct(m)
            assert uc.numerator.is_integral()

    def test_oracle_route_agrees(self):
        for m in range(0, 11):
            assert ct_oracle(m) == universal_ct(m).numerator, m


class TestDivisorPolynomial:
    def test_spec_examples(self):
        assert q_poly(1).numerator.serialize() == "1/1 x^1"
        q2 = q_poly(2)
        assert q2.numerator.coefficient(c1=1, x=1) == 1
        assert q2.numerator.coefficient(x=2) == -1

    def test_integrality_and_oracle(self):
        for m in range(1, 11):
            uc = q_poly(m)
            assert uc.numerator.is_integral()
            assert q_oracle(m) == uc.numerator, m

    def test_integer_sum_against_the_rational_product(self):
        # the construction q_poly replaced: the full product of 1 - e^{-x}
        # and the rational Td in Fractions, scaled by T_{m-1}
        for m in range(1, 14):
            numerator, reference = q_poly(m).numerator, q_numerator_reference(m)
            assert numerator == reference, m
            assert numerator.serialize() == reference.serialize(), m
            assert {type(c) for c in numerator.terms.values()} == {int}, m


def full_exp_route(per_root, m, n_vars):
    """The power-sum route with exp(u) as the full series sum u^k/k!."""
    alph = weighted_alphabet("c", n_vars)
    logs = series_log(per_root, m)
    u = GradedPolynomial.zero(alph, m)
    for k in range(1, m + 1):
        u = u + _power_sum_in_chern(k, n_vars).with_bound(m).scale(logs[k])
    return apply_series(exp_series(m), u).graded_part(m)


class TestGradedExp:
    def test_against_the_full_exp_series(self):
        for m in range(0, 10):
            for root_series, n_vars, width in [(todd_root_series, m, None)] + [
                (todd_inverse_root_series, r, r) for r in (1, 2, 3)
            ]:
                got = _PowerSumSeries(root_series, width).read(m, 1)
                assert got == full_exp_route(root_series(m), m, n_vars), (m, n_vars)
                assert got.truncation == m


def fraction_graded_exp(per_root, m, n_vars):
    """The power-sum route with the graded exp in Fractions: E_0 = 1 and
    d E_d = sum_k k l_k p_k E_{d-k}, one division by d per degree."""
    alph = weighted_alphabet("c", n_vars)
    logs = series_log(per_root, m)
    k_u = {
        k: _power_sum_in_chern(k, n_vars).with_bound(m).scale(k * logs[k])
        for k in range(1, m + 1)
        if logs[k]
    }
    exp_parts = [GradedPolynomial.constant(alph, m, 1)]
    for d in range(1, m + 1):
        total = GradedPolynomial.zero(alph, m)
        for k, part in k_u.items():
            if k <= d:
                total = total + part * exp_parts[d - k]
        exp_parts.append(total.scale(Fraction(1, d)))
    return exp_parts[m]


class TestIntegerGradedExp:
    """The oracles run the exp on integer polynomials and scale once; each
    must equal the Fraction recurrence times the class's scale, coefficient
    types included."""

    @staticmethod
    def check(got, expected):
        assert got == expected and got.truncation == expected.truncation
        for c in got.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction), c

    def test_todd(self):
        for m in range(0, 14):
            expected = fraction_graded_exp(todd_root_series(m), m, m)
            self.check(todd_series_oracle(m), expected.scale(todd_denominator(m).value))

    def test_todd_inverse(self):
        for r in range(1, 5):
            for m in range(r, 14):
                expected = fraction_graded_exp(todd_inverse_root_series(m - r), m - r, r)
                self.check(todd_inverse_oracle(m, r), expected.scale(factorial(m)))


class TestOracleRouteIndependence:
    """The power-sum route shares no checked quotient with the primary route:
    with todd_ratio replaced by a stub that raises, the combined-class and Q
    oracles still give the numerators recorded before, in ints."""

    def test_oracles_never_call_todd_ratio(self, monkeypatch):
        from grrcheck import series

        recorded = {(ct_oracle, m): universal_ct(m).numerator for m in range(0, 11)}
        recorded.update({(q_oracle, m): q_poly(m).numerator for m in range(1, 11)})

        def refuse(*args):
            raise AssertionError(f"todd_ratio{args} called on the oracle route")

        monkeypatch.setattr(series, "todd_ratio", refuse)
        todd_series_oracle.cache_clear()
        for (oracle, m), numerator in recorded.items():
            got = oracle(m)
            assert got == numerator, (oracle.__name__, m)
            assert all(type(c) is int for c in got.terms.values()), (oracle.__name__, m)


class TestPowerSumInChern:
    def test_against_the_substitute_route(self):
        # e_i -> c_i for i <= n_vars and e_i -> 0 above, as a full substitution
        for k in range(1, 11):
            for n_vars in range(1, 11):
                alph = weighted_alphabet("c", n_vars)
                images = {
                    f"e{i}": GradedPolynomial.variable(alph, k, f"c{i}") if i <= n_vars else 0
                    for i in range(1, k + 1)
                }
                expected = newton_power_sum(k).substitute(images, alph)
                got = _power_sum_in_chern(k, n_vars)
                assert got == expected and got.truncation == k, (k, n_vars)
                assert _power_sum_in_chern(k, n_vars) is got


class TestToddInverse:
    def test_spec_examples(self):
        assert todd_inverse_numerator(4, 4).numerator.coefficient() == 24
        assert todd_inverse_numerator(2, 1).numerator.coefficient(c1=1) == -1
        ti = todd_inverse_numerator(3, 1)
        assert ti.numerator.coefficient(c1=2) == 1 and len(ti.numerator.terms) == 1

    def test_integrality_and_oracle(self):
        for r in range(1, 5):
            for m in range(r, 11):
                uc = todd_inverse_numerator(m, r)
                assert uc.numerator.is_integral(), (m, r)
                assert todd_inverse_oracle(m, r) == uc.numerator, (m, r)


class TestIdentities:
    @pytest.mark.parametrize(
        "name",
        [
            "exp-sum-product",
            "exp-flip-series",
            "exp-difference-series",
            "divisor-todd-vs-ct",
            "todd-restriction-substitution",
        ],
    )
    def test_cheap_identities_degree_8(self, name):
        assert IDENTITY_CHECKS[name](8).passed

    @pytest.mark.parametrize(
        "name",
        ["chern-multiplicativity", "todd-additivity", "immersion-todd-decomposition"],
    )
    def test_split_identities_degree_6(self, name):
        assert IDENTITY_CHECKS[name](6).passed

    def test_wedge_identity(self):
        assert IDENTITY_CHECKS["top-chern-from-wedges"](6).passed

    @pytest.mark.parametrize("c", [2, -1])
    def test_exp_flip_pins_the_series_to_e_minus_x(self, c, monkeypatch):
        # g(a+b) = g(a)g(b) and g(a-b) = g(a)/g(b) hold for every g = e^{-cx},
        # so exp-flip-series, whose 1 - e^{b} is built from e^x, is the check
        # that fails when 1 - e^{-x} is read as 1 - e^{-cx}
        def wrong(n):
            return [int(k == 0) - e for k, e in enumerate(exp_series(n, -c))]

        monkeypatch.setattr(identities, "one_minus_exp_neg_series", wrong)
        assert IDENTITY_CHECKS["exp-sum-product"](8).passed
        assert IDENTITY_CHECKS["exp-difference-series"](8).passed
        assert not IDENTITY_CHECKS["exp-flip-series"](8).passed

    @staticmethod
    def wedge_steps():
        """(running total, names of the roots in S, s = sum_S x) for every
        step of the wedge identity, g = 1..5, with the generic products."""
        for g in range(1, 6):
            al = root_alphabet("x", g)
            one = GradedPolynomial.constant(al, g, 1)
            total = one
            for size in range(1, g + 1):
                for subset in combinations(al.names(), size):
                    s = GradedPolynomial.zero(al, g)
                    for name in subset:
                        s = s + GradedPolynomial.variable(al, g, name)
                    yield total, subset, s
                    if size % 2 == 0:
                        total = total * (one - s)
                    else:
                        total = total * apply_series([Fraction(1)] * (g + 1), s)

    def test_degree_by_degree_quotient(self):
        # against the product with 1/(1 - s) = sum s^k
        for total, names, s in self.wedge_steps():
            inverse = apply_series([Fraction(1)] * (total.truncation + 1), s)
            assert total.times_one_minus([(names, -1)]) == total * inverse, names

    def test_shifted_product(self):
        for total, names, s in self.wedge_steps():
            one = GradedPolynomial.constant(total.alphabet, total.truncation, 1)
            assert total.times_one_minus([(names, 1)]) == total * (one - s), names

    @pytest.mark.parametrize("g", range(1, 5))
    def test_random_factors_against_the_generic_product(self, g):
        # random p with int and Fraction coefficients, every truncation up to
        # g + 1, random (S, e) factors in both orders
        rng = random.Random(f"times-one-minus:{g}")
        al = root_alphabet("x", g)
        names = al.names()
        for bound in range(g + 2):
            one = GradedPolynomial.constant(al, bound, 1)
            for _ in range(6):
                terms = {}
                for _ in range(rng.randint(0, 6)):
                    mono = tuple(rng.randint(0, 2) for _ in range(g))
                    terms[mono] = rng.choice(
                        [rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
                    )
                p = GradedPolynomial(al, bound, terms)
                factors = []
                expected = p
                for _ in range(rng.randint(0, 5)):
                    subset = tuple(rng.sample(names, rng.randint(1, g)))
                    e = rng.choice([1, -1])
                    factors.append((subset, e))
                    s = GradedPolynomial.zero(al, bound)
                    for name in subset:
                        s = s + GradedPolynomial.variable(al, bound, name)
                    if e == 1:
                        expected = expected * (one - s)
                    else:
                        expected = expected * apply_series([1] * (bound + 1), s)
                for order in (factors, factors[::-1]):
                    got = p.times_one_minus(order)
                    assert got == expected and got.truncation == bound, (terms, order)
                    assert all(c.denominator != 1 or type(c) is int for _, c in got.terms.items())

    def test_rejects_weights_other_than_one_and_other_exponents(self):
        al = weighted_alphabet("c", 2)
        p = GradedPolynomial.constant(al, 3, 1)
        assert p.times_one_minus([(("c1",), -1)]).coefficient(c1=3) == 1
        with pytest.raises(AssertionError, match="weight-1"):
            p.times_one_minus([(("c1", "c2"), 1)])
        with pytest.raises(AssertionError, match="weight-1"):
            p.times_one_minus([(("c1",), 2)])

    def test_substituted_ranks_stay_int(self, monkeypatch):
        # the rank variable r is substituted by an int, so every coefficient
        # of the substituted Chern character and combined classes is an int
        calls = []
        substitute = GradedPolynomial.substitute

        def spy(self, images, *args, **kwargs):
            result = substitute(self, images, *args, **kwargs)
            if "r" in images:
                calls.append((images["r"], result))
            return result

        monkeypatch.setattr(GradedPolynomial, "substitute", spy)
        for name in ("top-chern-from-wedges", "divisor-todd-vs-ct", "chern-multiplicativity"):
            assert IDENTITY_CHECKS[name](4).passed
        assert {type(r) for r, _ in calls} == {int}
        assert all(type(c) is int for _, result in calls for _, c in result.terms.items())


class TestHowe:
    def test_rank_one(self):
        fs = howe_reduce(1, 0, 5)
        one = GradedPolynomial.constant(fs[1].alphabet, fs[1].truncation, 1)
        assert fs[1] == one
        fs_neg = howe_reduce(1, -1, 5)
        assert fs_neg[1].is_zero()

    def test_rank_two_negative_twists(self):
        for a in (-1, -2):
            fs = howe_reduce(2, a, 6)
            assert fs[2].is_zero(), a

    def test_claims_through_rank_four(self):
        for r in range(1, 5):
            for rep in howe_claims(r, r + 4):
                assert rep.passed, rep.instance

    @pytest.mark.parametrize("r", range(1, 5))
    def test_matches_the_root_route(self, r):
        for a in range(-r, 3):
            got = howe_reduce(r, a, r + 4)
            ref = howe_reduce_by_roots(r, a, r + 4)
            assert len(got) == len(ref) == r + 1
            for j, (f, g) in enumerate(zip(got, ref)):
                assert f == g and f.serialize() == g.serialize(), (a, j)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_todd_mutation_turns_the_suite_red(self, m):
        try:
            set_mutation(Mutation("todd", m, 0, Fraction(1)))
            assert not all(rep.passed for rep in suite_projective_bundle())
        finally:
            set_mutation(None)
        assert all(rep.passed for rep in suite_projective_bundle())


class TestFormalPathMutationKill:
    """A corrupted coefficient of any class kind turns the integrality suite
    red through that kind's own reports, because the oracle routes read no
    mutation; cleared, the suite passes again."""

    @pytest.mark.parametrize(
        "kind,m",
        [("todd", 6), ("todd", 8), ("ch", 3), ("ch", 8), ("ct", 2), ("ct", 6),
         ("q", 3), ("q", 6), ("toddinv", 4), ("toddinv", 6)],
    )
    def test_mutant_is_killed(self, kind, m):
        try:
            set_mutation(Mutation(kind, m, 0, Fraction(1)))
            failed = {rep.identity for rep in suite_integrality(8) if not rep.passed}
        finally:
            set_mutation(None)
        assert failed & {f"integrality:{kind}", f"route-agreement:{kind}"}, failed
        assert all(rep.passed for rep in suite_integrality(8))


class TestMutation:
    def teardown_method(self):
        set_mutation(None)

    def test_integer_mutation_changes_numerator(self):
        clean = universal_todd(4).numerator
        set_mutation(Mutation("todd", 4, 0, Fraction(1)))
        mutated = universal_todd(4).numerator
        assert mutated != clean
        assert mutated.is_integral()
        diffs = {
            mono: mutated.terms.get(mono, 0) - clean.terms.get(mono, 0)
            for mono in set(mutated.terms) | set(clean.terms)
        }
        assert sorted(v for v in diffs.values() if v) == [1]

    def test_fractional_mutation_trips_certification(self):
        set_mutation(Mutation("todd", 4, 2, Fraction(1, 2)))
        with pytest.raises(FalsificationError):
            universal_todd(4)

    def test_mutation_does_not_pollute_cache(self):
        clean = universal_todd(4).numerator
        set_mutation(Mutation("todd", 4, 1, Fraction(1)))
        universal_todd(4)
        set_mutation(None)
        assert universal_todd(4).numerator == clean

    def test_ch_is_checked_against_its_oracle_under_any_mutation(self, monkeypatch):
        # a mutation of another class leaves the ch build's Newton power sum
        # check on: a wrong ch numerator is still refused
        from grrcheck import series

        def corrupted(reduced, width, offset=1, _exponents=series._chern_exponents):
            terms = _exponents(reduced, width, offset)
            if offset == 0:  # the ch alphabet: the rank at position 0
                first = min(terms)
                terms[first] += 1
            return terms

        monkeypatch.setattr(series, "_chern_exponents", corrupted)
        monkeypatch.setattr(series, "_CACHE", {})
        set_mutation(Mutation("todd", 2, 0, Fraction(1)))
        with pytest.raises(FalsificationError, match="differs from the Newton power sum") as info:
            universal_chern_character(3)
        assert info.value.identity == "integrality:ch"

    def test_mutation_propagates_to_ct(self):
        clean = universal_ct(4).numerator
        set_mutation(Mutation("todd", 4, 0, Fraction(1)))
        assert universal_ct(4).numerator != clean

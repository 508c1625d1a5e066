import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck.arith import InputError
from grrcheck.poly import (
    Alphabet,
    GradedPolynomial,
    SymmetryError,
    conjugate_partition,
    elementary_product_orbit,
    elementary_reduce,
    elementary_symmetric,
    join_alphabets,
    multiply_by_elementary,
    newton_power_sum,
    partitions,
    reduce_orbit_to_elementary,
    root_alphabet,
    series_invert,
    series_log,
    series_mul,
)


def basic_alphabet():
    return Alphabet([("a", 1), ("b", 1), ("c", 2)])


class TestGradedPolynomial:
    def test_zero_and_constant(self):
        al = basic_alphabet()
        z = GradedPolynomial.zero(al, 5)
        assert z.is_zero() and z.serialize() == ""
        one = GradedPolynomial.constant(al, 5, 1)
        assert (one + z) == one
        assert one.serialize() == "1/1"

    def test_truncation_discards(self):
        al = basic_alphabet()
        p = GradedPolynomial(al, 2, {(3, 0, 0): 1, (1, 1, 0): 2, (0, 0, 1): 3})
        assert (3, 0, 0) not in p.terms
        assert p.coefficient(a=1, b=1) == 2
        assert p.coefficient(c=1) == 3

    def test_mul_respects_truncation(self):
        al = basic_alphabet()
        a = GradedPolynomial.variable(al, 3, "a")
        c = GradedPolynomial.variable(al, 3, "c")
        prod = (a + c) * (a + c)
        # a^2 (deg 2), 2ac (deg 3) survive; c^2 (deg 4) is cut
        assert prod.coefficient(a=2) == 1
        assert prod.coefficient(a=1, c=1) == 2
        assert prod.coefficient(c=2) == 0

    def test_mixed_truncation_minimum(self):
        al = basic_alphabet()
        p = GradedPolynomial.variable(al, 6, "a")
        q = GradedPolynomial.variable(al, 3, "a")
        assert (p * q).truncation == 3
        assert (p + q).truncation == 3

    def test_power(self):
        al = basic_alphabet()
        a = GradedPolynomial.variable(al, 10, "a")
        b = GradedPolynomial.variable(al, 10, "b")
        p = (a + b).power(4)
        assert p.coefficient(a=2, b=2) == 6
        assert p.coefficient(a=4) == 1

    def test_alphabet_mismatch(self):
        p = GradedPolynomial.constant(basic_alphabet(), 3, 1)
        q = GradedPolynomial.constant(root_alphabet("x", 2), 3, 1)
        with pytest.raises(InputError):
            _ = p + q

    def test_substitute(self):
        al = basic_alphabet()
        target = root_alphabet("x", 2)
        x1 = GradedPolynomial.variable(target, 4, "x1")
        x2 = GradedPolynomial.variable(target, 4, "x2")
        p = GradedPolynomial(al, 4, {(1, 0, 0): 1, (0, 0, 1): 1})  # a + c
        image = p.substitute({"a": x1 + x2, "b": 0, "c": x1 * x2}, target)
        assert image.coefficient(x1=1) == 1
        assert image.coefficient(x1=1, x2=1) == 1

    def test_substitute_scalar(self):
        al = basic_alphabet()
        p = GradedPolynomial(al, 4, {(2, 0, 0): 1, (0, 1, 0): 5})
        q = p.substitute({"a": Fraction(1, 2)}, al)
        assert q.coefficient() == Fraction(1, 4)
        assert q.coefficient(b=1) == 5

    def test_serialize_sorted_graded_lex(self):
        al = basic_alphabet()
        p = GradedPolynomial(al, 4, {(0, 0, 1): -1, (2, 0, 0): 1, (0, 0, 0): 3})
        assert p.serialize() == "3/1\n-1/1 c^1\n1/1 a^2"

    def test_pretty(self):
        al = basic_alphabet()
        p = GradedPolynomial(al, 4, {(0, 0, 1): -1, (2, 0, 0): 1})
        assert p.pretty() == "- c + a^2" or p.pretty() == "-c + a^2"

    def test_embed_and_rename(self):
        small = root_alphabet("x", 2)
        big = join_alphabets(small, Alphabet([("y", 1)]))
        p = GradedPolynomial.variable(small, 3, "x2")
        q = p.embed(big)
        assert q.coefficient(x2=1) == 1
        r = p.rename({"x2": "z"})
        assert "z" in r.alphabet


def _random_polynomial(rng, alphabet, truncation, n_terms):
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(0, 2) for _ in alphabet.variables)
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return GradedPolynomial(alphabet, truncation, terms)


def _naive_substitute(p, images, target, bound):
    """Multiply out each monomial's images one factor at a time."""
    total = GradedPolynomial.zero(target, bound)
    for mono, coeff in p.terms.items():
        acc = GradedPolynomial.constant(target, bound, coeff)
        for (name, _), e in zip(p.alphabet.variables, mono):
            if name in images:
                image = images[name]
            else:
                image = GradedPolynomial.variable(target, bound, name)
            for _ in range(e):
                if isinstance(image, GradedPolynomial):
                    acc = acc * image.truncate(bound)
                else:
                    acc = acc.scale(image)
        total = total + acc
    return total


class TestSubstituteAgainstNaiveExpansion:
    """GradedPolynomial.substitute against a factor-by-factor expansion, with
    polynomial, int and Fraction (including zero) images, unmapped variables,
    and given or inferred truncation bounds."""

    SOURCE = Alphabet([("r", 0), ("a", 1), ("b", 2), ("c", 1)])
    TARGET = Alphabet([("x", 1), ("y", 2), ("c", 1)])

    def _random_image(self, rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-2, 2)
        if kind == 1:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return _random_polynomial(rng, self.TARGET, rng.randint(1, 6), rng.randint(0, 4))

    def test_seeded_cases(self):
        rng = random.Random(20261018)
        checked = {"given": 0, "inferred": 0, "zero scalar": 0, "unmapped": 0}
        for _ in range(300):
            p = _random_polynomial(rng, self.SOURCE, rng.randint(0, 6), rng.randint(0, 6))
            images = {"r": rng.choice([0, 1, -2, Fraction(3, 2)])}
            images["a"] = self._random_image(rng)
            images["b"] = self._random_image(rng)
            if rng.random() < 0.7:
                images["c"] = self._random_image(rng)
            polys = [img for img in images.values() if isinstance(img, GradedPolynomial)]
            if not polys or rng.random() < 0.5:
                given = rng.randint(0, 7)
                result = p.substitute(images, self.TARGET, truncation=given)
                bound = min([given] + [q.truncation for q in polys])
                checked["given"] += 1
            else:
                result = p.substitute(images)
                bound = min([p.truncation] + [q.truncation for q in polys])
                checked["inferred"] += 1
            checked["zero scalar"] += any(img == 0 for img in images.values()
                                          if not isinstance(img, GradedPolynomial))
            checked["unmapped"] += "c" not in images
            expected = _naive_substitute(p, images, self.TARGET, bound)
            assert result.alphabet == self.TARGET
            assert result.truncation == bound
            assert result.terms == expected.terms
        assert min(checked.values()) >= 30, checked

    def test_scalar_only_needs_target(self):
        p = GradedPolynomial(self.SOURCE, 3, {(1, 1, 0, 0): 2})
        images = {"r": 2, "a": Fraction(1, 2), "b": 0}
        with pytest.raises(InputError):
            p.substitute(images)
        assert p.substitute(images, self.TARGET).serialize() == "2/1"

    def test_images_in_different_alphabets_rejected(self):
        p = GradedPolynomial.variable(self.SOURCE, 3, "a")
        other = GradedPolynomial.variable(root_alphabet("x", 1), 3, "x1")
        with pytest.raises(InputError):
            p.substitute({"a": other}, self.TARGET)


class TestPartitions:
    def test_counts(self):
        assert len(partitions(8)) == 22
        assert len(partitions(12)) == 77

    def test_bounds(self):
        assert partitions(4, max_len=2) == ((4,), (3, 1), (2, 2))
        assert partitions(4, max_part=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_conjugate(self):
        assert conjugate_partition((3, 1, 1)) == (3, 1, 1)
        assert conjugate_partition((4,)) == (1, 1, 1, 1)
        assert conjugate_partition(()) == ()


def brute_elementary_product(eta, n):
    """Oracle: expand prod e_{eta_i} monomial-by-monomial in n variables."""
    polys = []
    for a in eta:
        terms = {}
        for subset in combinations(range(n), a):
            mono = [0] * n
            for j in subset:
                mono[j] = 1
            terms[tuple(mono)] = 1
        polys.append(terms)
    acc = {(0,) * n: 1}
    for p in polys:
        nxt = {}
        for m1, c1 in acc.items():
            for m2, c2 in p.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                nxt[m] = nxt.get(m, 0) + c1 * c2
        acc = nxt
    orbit = {}
    for mono, c in acc.items():
        lam = tuple(sorted((e for e in mono if e), reverse=True))
        if mono == tuple(sorted(mono, reverse=True)):
            orbit[lam] = c
    return orbit


class TestOrbitEngine:
    def test_multiply_by_elementary_against_brute(self):
        for n in (2, 3, 4):
            for eta in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1, 1)]:
                if max(eta) > n:
                    continue
                expected = brute_elementary_product(tuple(sorted(eta, reverse=True)), n)
                got = elementary_product_orbit(tuple(sorted(eta, reverse=True)), n)
                assert {k: Fraction(v) for k, v in expected.items() if v} == got

    def test_reduce_power_sum(self):
        # p2 = e1^2 - 2 e2 in the orbit basis: p2 = m_(2)
        out = reduce_orbit_to_elementary({(2,): Fraction(1)}, 2)
        assert out == {(1, 1): Fraction(1), (2,): Fraction(-2)}

    def test_newton_oracle_matches_elimination(self):
        for k in range(1, 9):
            out = reduce_orbit_to_elementary({(k,): Fraction(1)}, k)
            newton = newton_power_sum(k)
            built = {}
            for mono, c in newton.terms.items():
                eta = []
                for i, e in enumerate(mono):
                    eta.extend([i + 1] * e)
                built[tuple(sorted(eta, reverse=True))] = c
            assert built == out


class TestElementaryReduce:
    def test_spec_examples(self):
        al = root_alphabet("x", 2)
        x1 = GradedPolynomial.variable(al, 4, "x1")
        x2 = GradedPolynomial.variable(al, 4, "x2")
        p = x1 * x1 + x2 * x2
        q = elementary_reduce(p, ["x1", "x2"])
        assert q.coefficient(e1=2) == 1 and q.coefficient(e2=1) == -2

        q2 = elementary_reduce(x1 * x2, ["x1", "x2"])
        assert q2.coefficient(e2=1) == 1 and len(q2.terms) == 1

        al3 = root_alphabet("x", 3)
        cube = GradedPolynomial.zero(al3, 5)
        for name in al3.names():
            v = GradedPolynomial.variable(al3, 5, name)
            cube = cube + v * v * v
        q3 = elementary_reduce(cube, list(al3.names()))
        assert q3.coefficient(e1=3) == 1
        assert q3.coefficient(e1=1, e2=1) == -3
        assert q3.coefficient(e3=1) == 3

    def test_rejects_asymmetric(self):
        al = root_alphabet("x", 2)
        x1 = GradedPolynomial.variable(al, 4, "x1")
        with pytest.raises(SymmetryError) as ei:
            elementary_reduce(x1, ["x1", "x2"])
        assert ei.value.transposition == ("x1", "x2")

    def test_passthrough_variables(self):
        al = join_alphabets(root_alphabet("x", 2), Alphabet([("t", 1)]))
        x1 = GradedPolynomial.variable(al, 4, "x1")
        x2 = GradedPolynomial.variable(al, 4, "x2")
        t = GradedPolynomial.variable(al, 4, "t")
        p = (x1 + x2) * t
        q = elementary_reduce(p, ["x1", "x2"])
        assert q.coefficient(e1=1, t=1) == 1

    def _random_symmetric(self, rng, n_roots, degree):
        al = root_alphabet("x", n_roots)
        p = GradedPolynomial.zero(al, degree)
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(0, degree)
            parts = ()
            if d:
                opts = partitions(d, max_len=n_roots)
                parts = opts[rng.randrange(len(opts))]
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms = {}
            mono0 = list(parts) + [0] * (n_roots - len(parts))
            for perm in set(permutations(mono0)):
                terms[perm] = coeff
            p = p + GradedPolynomial(al, degree, terms)
        return p

    def test_round_trip_randomized(self):
        rng = random.Random(20240817)
        for _ in range(25):
            n_roots = rng.randint(1, 5)
            degree = rng.randint(1, 8)
            p = self._random_symmetric(rng, n_roots, degree)
            q = elementary_reduce(p, [f"x{i}" for i in range(1, n_roots + 1)])
            images = {
                f"e{i}": elementary_symmetric(p.alphabet, p.alphabet.names(), i, degree)
                for i in range(1, n_roots + 1)
            }
            back = q.substitute(images, p.alphabet)
            assert back == p

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_round_trip_hypothesis(self, n_roots, degree, data):
        al = root_alphabet("x", n_roots)
        opts = [lam for d in range(degree + 1) for lam in partitions(d, max_len=n_roots)]
        lam = data.draw(st.sampled_from(opts))
        coeff = data.draw(st.integers(-6, 6).filter(bool))
        mono0 = list(lam) + [0] * (n_roots - len(lam))
        terms = {perm: Fraction(coeff) for perm in set(permutations(mono0))}
        p = GradedPolynomial(al, degree, terms)
        q = elementary_reduce(p, list(al.names()))
        images = {
            f"e{i}": elementary_symmetric(al, al.names(), i, degree)
            for i in range(1, n_roots + 1)
        }
        assert q.substitute(images, al) == p


class TestSeriesHelpers:
    def test_invert(self):
        # 1/(1 - x) = sum x^k
        a = [Fraction(1), Fraction(-1)]
        assert series_invert(a, 5) == [Fraction(1)] * 6

    def test_mul(self):
        a = [Fraction(1), Fraction(1)]
        assert series_mul(a, a, 2) == [Fraction(1), Fraction(2), Fraction(1)]

    def test_log_exp_consistency(self):
        # log(1/(1-x)) = sum x^k / k
        geo = series_invert([Fraction(1), Fraction(-1)], 6)
        lg = series_log(geo, 6)
        assert lg == [Fraction(0)] + [Fraction(1, k) for k in range(1, 7)]

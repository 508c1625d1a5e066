import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck.poly import (
    Alphabet,
    GradedPolynomial,
    conjugate_partition,
    elementary_product_orbit,
    elementary_symmetric,
    horner_eval,
    horner_scheme,
    join_alphabets,
    multiply_by_elementary,
    newton_power_sum,
    partitions,
    reduce_orbit_to_elementary,
    root_alphabet,
    series_invert,
)
from grrcheck.series import (
    _PowerSumSeries,
    exp_series,
    todd_inverse_root_series,
    todd_root_series,
)

import tuple_ring_reference as ref
from series_reference import series_log
from substitution_reference import substitute_terms
from symmetric_reference import SymmetryError, elementary_reduce


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

    def test_mixed_bounds_refused(self):
        # two bounds are refused, not truncated to the smaller one
        al = basic_alphabet()
        p = GradedPolynomial.variable(al, 6, "a")
        q = GradedPolynomial.variable(al, 3, "a")
        for op in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: q * p):
            with pytest.raises(AssertionError, match="bound mismatch: [63] and [63]"):
                op()
        assert (p + q.with_bound(6)).truncation == 6

    def test_with_bound_only_raises(self):
        al = basic_alphabet()
        p = GradedPolynomial(al, 3, {(1, 0, 0): 1, (0, 0, 1): 2})
        assert p.terms  # the tuple view is built, and the raised copy keeps it
        raised = p.with_bound(5)
        assert raised.truncation == 5 and raised.packed is p.packed and raised.terms is p.terms
        assert p.with_bound(3) == p and p.with_bound(3).truncation == 3
        with pytest.raises(AssertionError, match="would lower the bound 3 to 2"):
            p.with_bound(2)

    def test_alphabet_mismatch(self):
        p = GradedPolynomial.constant(basic_alphabet(), 3, 1)
        q = GradedPolynomial.constant(root_alphabet("x", 2), 3, 1)
        with pytest.raises(AssertionError, match="alphabet mismatch"):
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

    def test_embed(self):
        small = root_alphabet("x", 2)
        big = join_alphabets(small, Alphabet([("y", 1)]))
        p = GradedPolynomial.variable(small, 3, "x2")
        q = p.embed(big)
        assert q.coefficient(x2=1) == 1


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
                    acc = acc * image  # every image carries the bound
                else:
                    acc = acc.scale(image)
        total = total + acc
    return total


class TestSubstituteAgainstNaiveExpansion:
    """GradedPolynomial.substitute against a factor-by-factor expansion, with
    polynomial, int and Fraction (including zero) images, unmapped variables,
    and one bound per case: the polynomial's own, or one raised to."""

    SOURCE = Alphabet([("r", 0), ("a", 1), ("b", 2), ("c", 1)])
    TARGET = Alphabet([("x", 1), ("y", 2), ("c", 1)])

    def _random_image(self, rng, bound):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-2, 2)
        if kind == 1:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return _random_polynomial(rng, self.TARGET, bound, rng.randint(0, 4))

    def test_seeded_cases(self):
        rng = random.Random(20261018)
        checked = {"raised": 0, "own bound": 0, "zero scalar": 0, "unmapped": 0}
        for _ in range(300):
            bound = rng.randint(0, 7)
            p = _random_polynomial(rng, self.SOURCE, rng.randint(0, bound), rng.randint(0, 6))
            checked["raised" if p.truncation < bound else "own bound"] += 1
            images = {"r": rng.choice([0, 1, -2, Fraction(3, 2)])}
            images["a"] = self._random_image(rng, bound)
            images["b"] = self._random_image(rng, bound)
            if rng.random() < 0.7:
                images["c"] = self._random_image(rng, bound)
            result = p.with_bound(bound).substitute(images, self.TARGET)
            checked["zero scalar"] += any(img == 0 for img in images.values()
                                          if not isinstance(img, GradedPolynomial))
            checked["unmapped"] += "c" not in images
            expected = _naive_substitute(p, images, self.TARGET, bound)
            assert result.alphabet == self.TARGET
            assert result.truncation == bound
            assert result.terms == expected.terms
        assert min(checked.values()) >= 30, checked

    def test_scalar_only_images(self):
        p = GradedPolynomial(self.SOURCE, 3, {(1, 1, 0, 0): 2})
        images = {"r": 2, "a": Fraction(1, 2), "b": 0}
        assert p.substitute(images, self.TARGET).serialize() == "2/1"

    def test_images_in_different_alphabets_rejected(self):
        p = GradedPolynomial.variable(self.SOURCE, 3, "a")
        other = GradedPolynomial.variable(root_alphabet("x", 1), 3, "x1")
        with pytest.raises(AssertionError, match="images live in different alphabets"):
            p.substitute({"a": other}, self.TARGET)

    def test_images_at_another_bound_rejected(self):
        p = GradedPolynomial.variable(self.SOURCE, 6, "a")
        for bound in (3, 7):
            image = GradedPolynomial.variable(self.TARGET, bound, "x")
            with pytest.raises(AssertionError, match="images not at the bound 6"):
                p.substitute({"a": image}, self.TARGET)
        image = GradedPolynomial.variable(self.TARGET, 7, "x")
        assert p.with_bound(7).substitute({"r": 1, "a": image, "b": 0}, self.TARGET) == image


# -- a naive dict-of-Fraction reference ring ----------------------------------


def _ref_degree(alphabet, mono):
    return sum(e * w for e, w in zip(mono, alphabet.weights))


def _ref_clean(alphabet, bound, terms):
    return {
        m: Fraction(c)
        for m, c in terms.items()
        if c != 0 and _ref_degree(alphabet, m) <= bound
    }


def _ref_add(alphabet, bound, a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return _ref_clean(alphabet, bound, out)


def _ref_mul(alphabet, bound, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return _ref_clean(alphabet, bound, out)


def _ref_substitute(source, terms, images, target, bound):
    """images: name -> Fraction, or name -> (reference terms, bound) over target."""
    total = {}
    for mono, coeff in terms.items():
        acc = {(0,) * len(target): coeff}
        for (name, _), e in zip(source.variables, mono):
            image = images[name]
            for _ in range(e):
                if isinstance(image, tuple):
                    acc = _ref_mul(target, bound, acc, image[0])
                else:
                    acc = {m: c * image for m, c in acc.items()}
        total = _ref_add(target, bound, total, acc)
    return _ref_clean(target, bound, total)


class TestRingAgainstFractionReference:
    """Every ring operation against the naive reference, over a mixed-weight
    alphabet with a weight-0 variable: int, Fraction and integral-Fraction
    coefficients, terms that cancel, and one bound per case, raised for the
    substitution.  Stored coefficients must be ints exactly when integral,
    and never zero."""

    AL = Alphabet([("r", 0), ("a", 1), ("b", 1), ("c", 2), ("d", 3)])
    TARGET = Alphabet([("x", 1), ("y", 2)])

    @staticmethod
    def _coefficient(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-4, 4)
        if kind == 1:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if kind == 2:
            return Fraction(2 * rng.randint(-3, 3), 2)  # integral, given as a Fraction
        return Fraction(rng.randint(-3, 3), 3)

    def _raw_terms(self, rng, alphabet, n_terms):
        terms = {}
        for _ in range(n_terms):
            mono = tuple(rng.randint(0, 3 if w == 0 else 2) for w in alphabet.weights)
            terms[mono] = self._coefficient(rng)
        return terms

    @staticmethod
    def _check(poly, alphabet, bound, expected):
        assert poly.alphabet == alphabet
        assert poly.truncation == bound
        assert poly.terms == expected
        for c in poly.terms.values():
            assert c != 0
            assert type(c) is (int if c.denominator == 1 else Fraction), c
        assert poly.is_integral() == all(c.denominator == 1 for c in expected.values())

    def test_seeded_cases(self):
        rng = random.Random(6)
        al = self.AL
        seen = {"cancelled": 0, "integral": 0, "rational": 0, "bound raised": 0}
        for _ in range(320):
            b = rng.randint(0, 6)
            raw_p = self._raw_terms(rng, al, rng.randint(0, 7))
            # q cancels some of p's terms exactly
            raw_q = {m: -Fraction(c) for m, c in raw_p.items() if rng.random() < 0.4}
            raw_q.update(self._raw_terms(rng, al, rng.randint(0, 5)))
            p, q = GradedPolynomial(al, b, raw_p), GradedPolynomial(al, b, raw_q)
            ref_p, ref_q = _ref_clean(al, b, raw_p), _ref_clean(al, b, raw_q)
            self._check(p, al, b, ref_p)
            self._check(q, al, b, ref_q)
            ref_sum = _ref_add(al, b, ref_p, ref_q)
            self._check(p + q, al, b, ref_sum)
            self._check(p - q, al, b, _ref_add(al, b, ref_p, ref_q, -1))
            self._check(p * q, al, b, _ref_mul(al, b, ref_p, ref_q))
            for r in (0, Fraction(1, 3), rng.randint(-3, 3), Fraction(6, 3), Fraction(-3, 2)):
                scaled = {m: c * r for m, c in ref_p.items()}
                self._check(p.scale(r), al, b, _ref_clean(al, b, scaled))
            m = rng.randint(0, b + 1)
            part = {mono: c for mono, c in ref_p.items() if _ref_degree(al, mono) == m}
            self._check(p.graded_part(m), al, b, part)
            sb = rng.randint(b, 7)
            self._check(p.with_bound(sb), al, sb, ref_p)

            images, ref_images = {}, {}
            for name, _ in al.variables:
                if name != "r" and rng.random() < 0.6:
                    raw = self._raw_terms(rng, self.TARGET, rng.randint(0, 3))
                    images[name] = GradedPolynomial(self.TARGET, sb, raw)
                    ref_images[name] = (_ref_clean(self.TARGET, sb, raw), sb)
                else:
                    images[name] = self._coefficient(rng)
                    ref_images[name] = Fraction(images[name])
            self._check(
                p.with_bound(sb).substitute(images, self.TARGET),
                self.TARGET,
                sb,
                _ref_substitute(al, ref_p, ref_images, self.TARGET, sb),
            )

            seen["cancelled"] += any(m not in ref_sum for m in ref_p if m in ref_q)
            seen["integral"] += bool(ref_p) and all(c.denominator == 1 for c in ref_p.values())
            seen["rational"] += any(c.denominator != 1 for c in ref_p.values())
            seen["bound raised"] += sb > b
        assert min(seen.values()) >= 30, seen

    def test_constructor_checks(self):
        with pytest.raises(AssertionError, match="has wrong arity"):
            GradedPolynomial(self.AL, 3, {(1, 0): 1})
        with pytest.raises(AssertionError, match="truncation bound must be >= 0"):
            GradedPolynomial(self.AL, -1)
        p = GradedPolynomial(self.AL, 2, {(0, 0, 0, 1, 0): Fraction(4, 2), (0, 0, 0, 0, 1): 5,
                                          (3, 0, 0, 0, 0): 0})
        assert p.terms == {(0, 0, 0, 1, 0): 2} and type(p.terms[(0, 0, 0, 1, 0)]) is int
        with pytest.raises(AssertionError, match="would lower the bound 2 to -1"):
            p.with_bound(-1)

    def test_elementary_product_orbits_are_non_negative_ints(self):
        for n in range(1, 6):
            for total in range(0, 9):
                for eta in partitions(total, total, total):
                    for c in elementary_product_orbit(eta, n).values():
                        assert type(c) is int and c > 0, (eta, n, c)

    def test_one_exact_helper_for_both_rings(self):
        from grrcheck import geometry, poly

        assert geometry.accumulate is poly.accumulate
        assert not hasattr(geometry, "_exact")
        assert poly._exact(Fraction(6, 3)) == 2 and type(poly._exact(Fraction(6, 3))) is int
        assert poly._exact(Fraction(1, 3)) == Fraction(1, 3)


# -- packed keys and interned alphabets ----------------------------------------


def _tuple_product(p, q):
    """The product on exponent tuples, loop for loop as the packed kernel
    runs it: q's terms grouped by degree, ascending, each term of p meeting
    the groups under the one bound.  Returns (terms, whether a sum
    cancelled)."""
    al, bound = p.alphabet, p.truncation

    def degree(mono):
        return sum(e * w for e, w in zip(mono, al.weights))

    groups = {}
    for mb, cb in q.terms.items():
        groups.setdefault(degree(mb), []).append((mb, cb))
    out = {}
    for ma, ca in p.terms.items():
        for db, group in sorted(groups.items()):
            if db > bound - degree(ma):
                break
            for mb, cb in group:
                mono = tuple(x + y for x, y in zip(ma, mb))
                out[mono] = out.get(mono, 0) + ca * cb
    terms = {m: c for m, c in out.items() if c}
    return terms, len(terms) < len(out)


class TestPackedKeys:
    """GradedPolynomial.__mul__ adds packed keys; every result must be the
    tuple product, term order included, and no exponent may wrap."""

    ALPHABETS = [
        Alphabet([("r", 0), ("a", 1), ("b", 2), ("c", 1)]),
        Alphabet([("r", 0), ("s", 0)]),
        Alphabet([("a", 1), ("b", 3), ("t", 0), ("c", 2), ("d", 1)]),
        Alphabet([("x", 1)]),
    ]

    @staticmethod
    def _random(rng, al, bound, n_terms, top):
        terms = {}
        for _ in range(n_terms):
            mono = tuple(rng.randint(0, top) for _ in al.weights)
            kind = rng.randrange(3)
            if kind == 0:
                terms[mono] = rng.choice([-2, -1, 1, 2])
            elif kind == 1:
                terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            else:
                terms[mono] = Fraction(2 * rng.randint(-2, 2), 2)
        return GradedPolynomial(al, bound, terms)

    def test_product_against_tuple_product(self):
        rng = random.Random(20261018)
        seen = Counter()
        for _ in range(400):
            al = rng.choice(self.ALPHABETS)
            # exponents below 2^14 keep every product inside the packed range
            top = rng.choice([2, 3, 2**14 - 1])
            bound = rng.randint(0, 8) if top < 4 else 10**6
            p = self._random(rng, al, bound, rng.randint(0, 8), top)
            q = self._random(rng, al, bound, rng.randint(0, 8), top)
            if rng.random() < 0.3:  # p = A + B, q = A - B: the AB terms cancel
                flip = {m: -c if rng.random() < 0.5 else c for m, c in p.terms.items()}
                q = GradedPolynomial(al, bound, flip)
            expected, cancelled = _tuple_product(p, q)
            got = p * q
            assert list(got.terms.items()) == list(expected.items())
            assert got.truncation == bound
            for c in got.terms.values():
                assert type(c) is (int if c.denominator == 1 else Fraction), c
            seen["weight 0"] += 0 in al.weights and any(got.terms)
            seen["rational"] += not got.is_integral()
            seen["cancelled"] += cancelled
            seen["large exponents"] += top > 3 and bool(got.terms)
        assert min(seen.values()) >= 20, seen

    def test_sorted_terms_and_serialize_order(self):
        rng = random.Random(12)
        for _ in range(200):
            al = rng.choice(self.ALPHABETS)
            p = self._random(rng, al, rng.randint(0, 12), rng.randint(0, 10), 4)
            degree = {m: sum(e * w for e, w in zip(m, al.weights)) for m in p.terms}
            order = sorted(p.terms.items(), key=lambda kv: (degree[kv[0]], kv[0]))
            assert p.sorted_terms() == order
            names = al.names()
            lines = [
                " ".join([f"{c.numerator}/{c.denominator}"]
                         + [f"{names[i]}^{e}" for i, e in enumerate(m) if e])
                for m, c in order
            ]
            assert p.serialize() == "\n".join(lines)

    def test_exponents_never_wrap(self):
        half = 1 << 15  # every exponent stays below half of its 16-bit field
        al = Alphabet([("r", 0), ("a", 1)])
        x = GradedPolynomial(al, 10**6, {(200, 0): 1, (0, 300): 2})
        assert (x * x).terms == {(400, 0): 1, (200, 300): 4, (0, 600): 4}
        low = GradedPolynomial(al, 10**6, {(half // 2 - 1, 0): 1, (0, half // 2 - 1): 1})
        high = GradedPolynomial(al, 10**6, {(half // 2, 0): 1, (0, half // 2): 1})
        assert set((low * high).terms) == {
            (half - 1, 0), (half // 2 - 1, half // 2), (half // 2, half // 2 - 1), (0, half - 1)
        }
        edge = GradedPolynomial(al, 10**6, {(half - 1, 0): 1})
        for _ in range(2):  # a failed unpacking is not remembered
            with pytest.raises(AssertionError, match="packed range"):
                edge * edge  # 2 * half - 2 still fits the field, but not half of it
        square = GradedPolynomial(al, 10**6, {(0, half // 2): 1})
        with pytest.raises(AssertionError, match="packed range"):
            square * square
        for bad in [(half, 0), (0, 3 * half), (-1, 0)]:
            with pytest.raises(AssertionError, match="packed range"):
                GradedPolynomial(al, 10**6, {bad: 1})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reading_a_key_stores_nothing(self, data):
        """A sum of two keys unpacks to the entrywise sum of their tuples, and
        unpacking it, the canonical text and the tuple view of a polynomial
        that holds it add no entry to the alphabet's key memo."""
        half = 1 << 15
        weights = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        al = Alphabet([(f"u{i}", w) for i, w in enumerate(weights)])
        monomial = st.tuples(*[st.integers(0, half - 1)] * len(weights))
        a, b = data.draw(monomial), data.draw(monomial)
        key = al.keys[a] + al.keys[b]
        total = tuple(x + y for x, y in zip(a, b))
        size = len(al.keys)
        assert al.monomial(key) == total
        p = GradedPolynomial._normal(al, key >> al.shift, {key: 1})
        assert p.serialize() == "1/1" + "".join(f" u{i}^{e}" for i, e in enumerate(total) if e)
        assert p.terms == {total: 1}
        assert len(al.keys) == size

    def test_names_built_once(self):
        al = Alphabet([("r", 0), ("a", 1), ("b", 2)])
        assert al.names() == ("r", "a", "b") and al.names() is al.names()

    def test_one_alphabet_per_variable_list(self):
        from grrcheck import poly

        assert Alphabet([("a", 1), ("b", 2)]) is Alphabet((("a", 1), ("b", 2)))
        assert root_alphabet("x", 3) is root_alphabet("x", 3)
        assert root_alphabet("x", 3) is Alphabet([(f"x{i}", 1) for i in (1, 2, 3)])
        assert Alphabet([("b", 2), ("a", 1)]) is not Alphabet([("a", 1), ("b", 2)])
        assert Alphabet([("a", 1), ("b", 1)]) is not Alphabet([("a", 1), ("b", 2)])
        assert Alphabet([("a", 1), ("b", 1)]) != Alphabet([("a", 1), ("b", 2)])
        for bad, error in [([("a", 1), ("a", 2)], "duplicate variable"), ([("a", -1)], "weights")]:
            with pytest.raises(AssertionError, match=error):
                Alphabet(bad)
            assert tuple(bad) not in poly._ALPHABETS


COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3).map(lambda n: Fraction(2 * n, 2)),  # integral Fractions
)


def graded_terms(alphabet):
    """Terms with exponents up to 2, and for a weight-0 variable also
    2^14 - 1, which the packed range still holds in a product."""
    small, large = st.integers(0, 2), st.integers(0, 2) | st.just(2**14 - 1)
    monomial = st.tuples(*[large if w == 0 else small for w in alphabet.weights])
    return st.dictionaries(monomial, COEFFICIENTS, max_size=6)


class TestPackedRingAgainstTuples:
    """Every ring operation on packed keys gives the terms, the coefficient
    types, the bound and the text that tests/tuple_ring_reference.py gets on
    exponent tuples."""

    @staticmethod
    def check(poly, alphabet, terms, bound):
        variables = list(alphabet.variables)
        assert poly.alphabet is alphabet and poly.truncation == bound
        assert poly.terms == terms
        assert poly.packed == {alphabet.keys[m]: c for m, c in terms.items()}
        for c in poly.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction), c
        assert poly.serialize() == ref.serialize(variables, terms)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ring_operations(self, data):
        al = data.draw(st.sampled_from(TestPackedKeys.ALPHABETS))
        var = list(al.variables)
        bp = data.draw(st.integers(0, 12))
        p_terms, q_terms = data.draw(graded_terms(al)), data.draw(graded_terms(al))
        p, q = GradedPolynomial(al, bp, p_terms), GradedPolynomial(al, bp, q_terms)
        P, Q = ref.clean(var, bp, p_terms), ref.clean(var, bp, q_terms)
        self.check(p, al, P, bp)
        self.check(p * q, al, ref.product(var, bp, P, Q), bp)
        self.check(p + q, al, ref.linear(var, bp, P, Q, 1), bp)
        self.check(p - q, al, ref.linear(var, bp, P, Q, -1), bp)
        r = data.draw(COEFFICIENTS)
        self.check(p.scale(r), al, ref.scale(P, r), bp)
        m, b = data.draw(st.integers(0, 12)), data.draw(st.integers(bp, 12))
        self.check(p.graded_part(m), al, ref.graded_part(var, P, m), bp)
        self.check(p.with_bound(b), al, ref.with_bound(var, P, b), b)
        extras = data.draw(st.lists(st.sampled_from([("y", 0), ("z", 1), ("w", 2)]), unique=True))
        target = data.draw(st.permutations(var + extras))
        self.check(p.embed(Alphabet(target)), Alphabet(target), ref.embed(var, target, P), bp)
        singles = [name for name, w in var if w == 1]
        if singles:
            subset = st.lists(st.sampled_from(singles), min_size=1, max_size=2, unique=True)
            factors = data.draw(st.lists(st.tuples(subset, st.sampled_from([1, -1])), max_size=3))
            expected = ref.times_one_minus(var, bp, P, factors)
            self.check(p.times_one_minus(factors), al, expected, bp)

    @staticmethod
    @st.composite
    def images(draw, names, target, bound):
        """One image per name, or none: a scalar (int, Fraction or 0), or a
        polynomial over the target at the bound: zero, a constant, one term,
        or several terms (which the bound may cut to one or none)."""
        monomial = st.tuples(*[st.integers(0, 2)] * len(target))
        kinds = {
            "scalar": st.one_of(COEFFICIENTS, st.just(0)),
            "zero": st.just(GradedPolynomial.zero(target, bound)),
            "constant": st.builds(
                GradedPolynomial.constant, st.just(target), st.just(bound), COEFFICIENTS
            ),
            "terms": st.builds(
                GradedPolynomial,
                st.just(target),
                st.just(bound),
                st.dictionaries(monomial, COEFFICIENTS.filter(bool), min_size=1, max_size=4),
            ),
        }
        out = {}
        for name in names:
            kind = draw(st.sampled_from(["unmapped", *kinds]))
            if kind != "unmapped":
                out[name] = draw(kinds[kind])
        return out

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_substitute(self, data):
        # folded images (scalars, zero, constants, one term, unmapped names)
        # and walked ones against the expand-and-multiply reference
        al = data.draw(st.sampled_from(TestPackedKeys.ALPHABETS))
        var = list(al.variables)
        extras = data.draw(st.lists(st.sampled_from([("y", 0), ("z", 1), ("w", 2)]), unique=True))
        target = Alphabet(data.draw(st.permutations(var + extras)))
        monomial = st.tuples(*[st.integers(0, 2)] * len(al))
        bp = data.draw(st.integers(0, 8))
        p = GradedPolynomial(al, bp, data.draw(st.dictionaries(monomial, COEFFICIENTS, max_size=6)))
        bound = data.draw(st.integers(bp, 10))  # p's own bound, or one raised to
        images = data.draw(self.images(al.names(), target, bound))
        reference = {
            name: img.terms if isinstance(img, GradedPolynomial) else img
            for name, img in images.items()
        }
        expected = ref.substitute(var, list(target.variables), bound, p.terms, reference)
        self.check(p.with_bound(bound).substitute(images, target), target, expected, bound)

    def test_substitute_past_the_packed_range(self):
        # r^e -> s^2 folds to s^(2e): the mask guard refuses e = 2^14, the
        # first past the packed range.  s^4 at e = 2^14 would fill the whole
        # 16-bit field and carry into r's, where the mask sees nothing, so
        # such a fold is refused before any key is made
        half = 1 << 15
        al = Alphabet([("r", 0), ("s", 0)])
        s2, s4 = (GradedPolynomial(al, 0, {(0, e): 1}) for e in (2, 4))
        edge = GradedPolynomial(al, 0, {(half // 2 - 1, 0): 1})
        assert edge.substitute({"r": s2}, al).terms == {(0, half - 2): 1}
        past = GradedPolynomial(al, 0, {(half // 2, 0): 1})
        with pytest.raises(AssertionError, match="outside the packed range"):
            past.substitute({"r": s2}, al)
        with pytest.raises(AssertionError, match="may leave the packed range"):
            past.substitute({"r": s4}, al)

    def test_substitute_folds_each_field_on_its_own(self):
        # a carry needs one field to reach 2^16, so large exponents in
        # different fields fold, the identity included; s -> t sums two of
        # them in t's field, below 2^16, where the mask guard sees it
        al = Alphabet([("r", 0), ("s", 0), ("t", 0)])
        big = GradedPolynomial(al, 0, {(30000, 30000, 30000): 3})
        assert big.substitute({}, al).terms == big.terms
        t = GradedPolynomial.variable(al, 0, "t")
        with pytest.raises(AssertionError, match="outside the packed range"):
            big.substitute({"s": t}, al)

    def test_times_one_minus_past_the_packed_range(self):
        # an exponent of a weight-1 variable is at most the bound, so only a
        # bound of 2^15 or more lets a factor push one out of the packed range
        half = 1 << 15
        al = Alphabet([("a", 1), ("b", 1)])
        near = GradedPolynomial(al, half, {(half - 2, 0): 1})
        assert near.times_one_minus([(["a"], 1)]).terms == {(half - 2, 0): 1, (half - 1, 0): -1}
        edge = GradedPolynomial(al, half, {(half - 1, 0): 1})
        assert edge.times_one_minus([(["b"], 1)]).terms == {(half - 1, 0): 1, (half - 1, 1): -1}
        for e in (1, -1):
            with pytest.raises(AssertionError, match="packed range"):
                edge.times_one_minus([(["a"], e)])
            with pytest.raises(AssertionError, match="packed range"):
                near.times_one_minus([(["a", "b"], e), (["a"], e)])


class TestPartitions:
    def test_counts(self):
        assert len(partitions(8, 8, 8)) == 22
        assert len(partitions(12, 12, 12)) == 77

    def test_bounds(self):
        assert partitions(4, 4, 2) == ((4,), (3, 1), (2, 2))
        assert partitions(4, 2, 4) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))

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


def count_01_matrices(rows, cols):
    """Oracle: the number of 0-1 matrices with the given row and column sums,
    filling one row at a time."""
    memo = {}

    def fill(i, caps):
        if i == len(rows):
            return int(not any(caps))
        if (i, caps) not in memo:
            memo[i, caps] = sum(
                fill(i + 1, tuple(c - (j in chosen) for j, c in enumerate(caps)))
                for chosen in combinations(range(len(caps)), rows[i])
                if all(caps[j] for j in chosen)
            )
        return memo[i, caps]

    return fill(0, tuple(cols))


class TestOrbitEngine:
    def test_elementary_products_count_01_matrices(self):
        # the coefficient of m_lambda in e_eta counts the 0-1 matrices with row
        # sums eta and column sums lambda; n roots keep the lambda of length <= n
        for total in range(0, 9):
            for eta in partitions(total, total, total):
                for n in range(1, total + 3):
                    expected = {
                        lam: count
                        for lam in partitions(total, total, n)
                        if (count := count_01_matrices(eta, lam))
                    }
                    assert elementary_product_orbit(eta, n) == expected, (eta, n)

    def test_expansion_memo_is_independent_of_fill_order(self, monkeypatch):
        from grrcheck import poly

        eta = (3, 2, 2, 1)
        results = []
        for order in [(10, 8, 5, 3), (3, 5, 8, 10)]:
            monkeypatch.setattr(poly, "_ELEM_EXPANSION", {})
            results.append({n: elementary_product_orbit(eta, n) for n in order})
        assert results[0] == results[1]
        assert results[0][10] == results[0][8] != results[0][5]

    def test_raisings_run_once_per_term(self, monkeypatch):
        from grrcheck import poly

        runs = Counter()
        undecorated = poly._raisings

        def counted(sigma, a, n_roots):
            runs[sigma, a, n_roots] += 1
            return undecorated(sigma, a, n_roots)

        monkeypatch.setattr(poly, "_raisings", counted)
        monkeypatch.setattr(poly, "_RAISINGS", {})
        monkeypatch.setattr(poly, "_ELEM_EXPANSION", {})
        # every expansion up to degree 9, at every root count from its first
        # part up, each last factor multiplied in by multiply_by_elementary
        # (test_elementary_products_count_01_matrices checks their values)
        for total in range(1, 10):
            for eta in partitions(total, total, total):
                for n in range(eta[0], total + 1):
                    elementary_product_orbit(eta, n)
        assert runs and max(runs.values()) == 1
        tables = poly._RAISINGS.items()
        assert set(runs) == {(sigma, a, n) for (a, n), table in tables for sigma in table}
        assert all(type(raisings) is tuple for _, table in tables for raisings in table.values())

    def test_multiply_by_elementary_against_brute(self):
        for n in (2, 3, 4):
            for eta in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1, 1)]:
                if max(eta) > n:
                    continue
                expected = brute_elementary_product(tuple(sorted(eta, reverse=True)), n)
                got = elementary_product_orbit(tuple(sorted(eta, reverse=True)), n)
                assert {k: Fraction(v) for k, v in expected.items() if v} == got

    @st.composite
    def orbit_maps(draw):
        """(orbit map, n): nonzero int coefficients on orbits of one or two
        degrees <= 8, each with at most n <= 6 parts."""
        n = draw(st.integers(1, 6))
        degrees = draw(st.sets(st.integers(0, 8), min_size=1, max_size=2))
        orbits = [lam for d in sorted(degrees) for lam in partitions(d, d, n)]
        coeffs = st.integers(-9, 9).filter(bool)
        return draw(st.dictionaries(st.sampled_from(orbits), coeffs, min_size=1)), n

    @settings(max_examples=60, deadline=None)
    @given(orbit_maps())
    def test_elimination_round_trips(self, case):
        # expanding the result back by the brute-force 0-1 matrix count gives
        # the input at every orbit the roots can carry
        f, n = case
        out = reduce_orbit_to_elementary(f, n)
        assert all(eta[0] <= n for eta in out if eta)
        for d in {sum(lam) for lam in f} | {sum(eta) for eta in out}:
            for lam in partitions(d, d, n):
                back = sum(b * count_01_matrices(eta, lam) for eta, b in out.items())
                assert back == f.get(lam, 0), (lam, f, out)

    def test_reduce_power_sum(self):
        # p2 = e1^2 - 2 e2 in the orbit basis: p2 = m_(2)
        out = reduce_orbit_to_elementary({(2,): Fraction(1)}, 2)
        assert out == {(1, 1): Fraction(1), (2,): Fraction(-2)}

    @pytest.mark.parametrize(
        "broken",
        [
            {(1, 1): 2},  # leading coefficient 2: the leading orbit stays
            {(1, 1): 1, (2,): 1},  # a lex-larger orbit appears
        ],
    )
    def test_elimination_checks_its_leading_orbit(self, broken, monkeypatch):
        from grrcheck import poly

        monkeypatch.setattr(poly, "elementary_product_orbit", lambda eta, n: broken)
        with pytest.raises(AssertionError):
            reduce_orbit_to_elementary({(1, 1): Fraction(1, 2)}, 2)

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
                opts = partitions(d, d, n_roots)
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
        opts = [lam for d in range(degree + 1) for lam in partitions(d, d, n_roots)]
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


class TestHornerScheme:
    def test_scheme_shape(self):
        scheme = horner_scheme({(2, 0): "a", (0, 1): "b", (0, 0): "c"})
        assert scheme == ((2, ((0, "a"),)), (0, ((1, "b"), (0, "c"))))
        assert horner_scheme({(): "k"}) == "k"
        # each pair steps down to the next lower exponent, the last one to 0
        assert horner_scheme({(5,): "a", (2,): "b", (0,): "c"}) == ((3, "a"), (2, "b"), (0, "c"))
        assert horner_scheme({(4,): "a", (1,): "b"}) == ((3, "a"), (1, "b"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * 3), st.integers(-9, 9), min_size=1, max_size=12
        ),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_matches_the_monomial_sum(self, terms, point):
        x, y, z = point
        direct = sum(c * x**a * y**b * z**d for (a, b, d), c in terms.items())
        assert horner_eval(horner_scheme(terms), point) == direct

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from([0, 2, 5]), st.sampled_from([0, 1, 4, 6])),
            st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2), st.integers(-4, 4), max_size=3),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.dictionaries(st.tuples(*[st.integers(0, 1)] * 2), st.integers(-3, 3), max_size=3),
            min_size=2,
            max_size=2,
        ),
    )
    def test_matches_substitute_terms_with_exponent_gaps(self, grouped, point):
        # coefficients and values in a ring: polynomials in u1, u2 cut above degree 9
        ring = root_alphabet("u", 2)
        coeffs = {e: GradedPolynomial(ring, 9, terms) for e, terms in grouped.items()}
        values = [GradedPolynomial(ring, 9, terms) for terms in point]
        one = GradedPolynomial.constant(ring, 9, 1)
        want = substitute_terms(coeffs, ["x", "y"], dict(zip("xy", values)), one)
        got = horner_eval(horner_scheme(coeffs), values)
        assert got == want.get((), GradedPolynomial.zero(ring, 9))

    def test_one_product_per_exponent_step(self):
        products = []

        class Counted(int):
            def __mul__(self, other):
                products.append(other)
                return Counted(int(self) * other)

            def __add__(self, other):
                return Counted(int(self) + other)

        scheme = horner_scheme({(5,): Counted(1), (2,): Counted(3), (0,): Counted(1)})
        assert horner_eval(scheme, [2]) == 2**5 + 3 * 2**2 + 1
        assert len(products) == 5


def log_terms(root_series, n):
    """k l_k for k = 1..n, as the power-sum route takes them from the per-root
    series by n f_n = sum_k k l_k f_{n-k}."""
    series = _PowerSumSeries(root_series, 1)
    series.read(n, 1)
    return series.kl[1:]


class TestSeriesHelpers:
    def test_invert(self):
        # 1/(1 - x) = sum x^k
        a = [Fraction(1), Fraction(-1)]
        assert series_invert(a, 5) == [Fraction(1)] * 6

    def test_int_series_give_exact_entries(self):
        results = [series_invert([1, 1], 3), series_invert([2, 1, 3], 4)]
        for values in results:
            assert all(type(v) in (int, Fraction) for v in values), values
        assert series_invert([1, 1], 3) == [1, -1, 1, -1]
        assert series_invert([2], 1) == [Fraction(1, 2), 0]

    def test_log_terms_of_the_geometric_series(self):
        # log(1/(1-x)) = sum x^k / k
        assert log_terms(lambda n: series_invert([Fraction(1), Fraction(-1)], n), 12) == [1] * 12

    def test_log_terms_of_one_plus_x(self):
        # log(1 + x) = sum (-1)^(k+1) x^k / k
        def one_plus_x(n):
            return [Fraction(1), Fraction(1)] + [Fraction(0)] * (n - 1)

        assert log_terms(one_plus_x, 12) == [(-1) ** (k + 1) for k in range(1, 13)]

    @pytest.mark.parametrize("a", [1, 3, Fraction(-2, 5)])
    def test_log_terms_of_an_exponential(self, a):
        assert log_terms(lambda n: exp_series(n, a), 10) == [a] + [0] * 9

    @pytest.mark.parametrize("root_series", [todd_root_series, todd_inverse_root_series])
    def test_log_terms_against_the_reference_log(self, root_series):
        got = log_terms(root_series, 20)
        assert all(type(v) is Fraction for v in got)
        assert got == [k * l for k, l in enumerate(series_log(root_series(20), 20)) if k]

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from grrcheck.arith import (
    bernoulli,
    bernoulli_akiyama_tanigawa,
    check_divisibility_lemma,
    check_ekedahl_divisibility,
    exact_ratio,
    fulton_macpherson_L,
    primes_up_to,
    todd_denominator,
    todd_ratio,
    von_staudt_D,
)


def oracle_todd_denominator(m: int) -> int:
    # Direct evaluation of the defining product, independent of the library's
    # factorization bookkeeping.
    value = 1
    for p in primes_up_to(m + 1):
        value *= p ** (m // (p - 1))
    return value


# Frozen from oracle_todd_denominator; T_2 = 12 is also a published value.
T_TABLE = {0: 1, 1: 2, 2: 12, 3: 24, 4: 720, 5: 1440, 6: 60480, 7: 120960, 8: 3628800}


class TestToddDenominator:
    def test_low_degrees(self):
        for m, expected in T_TABLE.items():
            assert todd_denominator(m).value == expected

    def test_matches_oracle_up_to_30(self):
        for m in range(31):
            assert todd_denominator(m).value == oracle_todd_denominator(m)

    def test_factorization_invariant(self):
        fi = todd_denominator(12)
        assert fi.value == 1307674368000 * todd_denominator(12).value // 1307674368000
        value = 1
        for p, e in fi.factorization:
            value *= p**e
        assert value == fi.value

    def test_divides_chain(self):
        for m in range(31):
            for mp in range(m, 31):
                assert todd_denominator(mp).value % todd_denominator(m).value == 0

    def test_factorial_divides(self):
        for m in range(1, 31):
            assert todd_denominator(m).value % factorial(m) == 0


def compositions(total: int, smallest: int = 1):
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


class TestDivisibilityLemma:
    def test_spec_instances(self):
        assert check_divisibility_lemma([1], [2], 4) == (True, 30)
        assert check_divisibility_lemma([], [5], 5) == (True, 1)
        ok, q = check_divisibility_lemma([3], [], 4)
        assert ok and q == todd_denominator(4).value // factorial(4)

    def test_exhaustive_small(self):
        # Every composition of every m <= 12, each part tagged factorial or Todd.
        for m in range(1, 13):
            for comp in compositions(m):
                for mask in range(2 ** len(comp)):
                    facts = [c for i, c in enumerate(comp) if mask >> i & 1]
                    todds = [c for i, c in enumerate(comp) if not mask >> i & 1]
                    ok, q = check_divisibility_lemma(facts, todds, m)
                    assert ok, (facts, todds, m, q)
                    denom = 1
                    for x in facts:
                        denom *= factorial(x + 1)
                    for x in todds:
                        denom *= todd_denominator(x).value
                    assert q * denom == todd_denominator(m).value

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=4), st.data())
    def test_random_compositions(self, todds, data):
        total = sum(todds)
        extra = data.draw(st.integers(0, 6))
        m = total + extra
        if m < 1:
            m = 1
        ok, q = check_divisibility_lemma([], todds, m)
        assert ok
        denom = 1
        for x in todds:
            denom *= todd_denominator(x).value
        assert q * denom == todd_denominator(m).value


class TestBernoulli:
    def test_low_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 41, 2):
            assert bernoulli(n) == 0

    def test_two_algorithm_agreement(self):
        for n in range(41):
            assert bernoulli(n) == bernoulli_akiyama_tanigawa(n), n


class TestVonStaudt:
    def test_spec_instances(self):
        assert von_staudt_D(1).value == 12
        assert von_staudt_D(2).value == 120
        assert von_staudt_D(3).value == 252

    def test_matches_bernoulli_denominator(self):
        # von_staudt_D self-asserts this; exercise it through g = 20.
        for g in range(1, 21):
            d = von_staudt_D(g)
            assert d.value == (bernoulli(2 * g) / (2 * g)).denominator


class TestFultonMacPhersonL:
    def test_spec_instances(self):
        assert fulton_macpherson_L(1).value == 2
        assert fulton_macpherson_L(2).value == 6
        assert fulton_macpherson_L(3).value == 2

    def test_radical_property(self):
        for n in range(1, 13):
            ln = fulton_macpherson_L(n).value
            defect = todd_denominator(n).value // factorial(n)
            assert todd_denominator(n).value % factorial(n) == 0
            assert defect % ln == 0
            # every prime of the defect divides L_n and vice versa
            for p, _ in fulton_macpherson_L(n).factorization:
                assert defect % p == 0


class TestEkedahl:
    def test_spec_instances(self):
        assert check_ekedahl_divisibility(2) == (True, 3)
        assert check_ekedahl_divisibility(3) == (True, 60)
        ok, _ = check_ekedahl_divisibility(10)
        assert ok

    def test_range(self):
        for g in range(2, 16):
            ok, q = check_ekedahl_divisibility(g)
            assert ok
            assert (
                q * 2 * factorial(g - 1) * von_staudt_D(g).value
                == todd_denominator(2 * g).value
            )

    def test_memoised_factorials_are_not_shared_state(self):
        # check_ekedahl_divisibility adds to the factorisation of (g-1)! it
        # reads; the memo must hand it a value it cannot change
        for g in range(2, 16):
            first = check_ekedahl_divisibility(g)
            between = fulton_macpherson_L(g - 1)
            assert check_ekedahl_divisibility(g) == first, g
            assert fulton_macpherson_L(g - 1) == between, g
            quotient = first[1]
            assert quotient * 2 * factorial(g - 1) * von_staudt_D(g).value == (
                todd_denominator(2 * g).value
            )


class TestHelpers:
    def test_exact_ratio(self):
        assert exact_ratio(720, 24) == 30
        with pytest.raises(AssertionError):
            exact_ratio(7, 2)

    def test_todd_ratio(self):
        assert todd_ratio(2, 1, 1) == 6
        assert todd_ratio(3, 0, 2) == 2

    def test_todd_ratio_one_past_the_degree(self):
        # j + k = m + 1 with j >= 1 is exact too (the ratios series.q_poly
        # reads), and matches the lemma's quotient with factorial part j - 1
        for m in range(0, 25):
            for j in range(1, m + 2):
                k = m + 1 - j
                ratio = Fraction(todd_denominator(m).value, factorial(j) * todd_denominator(k).value)
                assert ratio.denominator == 1 and todd_ratio(m, j, k) == ratio, (m, j)
                if m >= 1:
                    parts = ([j - 1] if j > 1 else [], [k] if k else [])
                    assert check_divisibility_lemma(*parts, m) == (True, ratio), (m, j)
        with pytest.raises(AssertionError):
            todd_ratio(2, 0, 3)  # j = 0 one past the degree: T_2 / T_3

    def test_factored_integer_validation(self):
        assert str(todd_denominator(4)) == "720 = 2^4 * 3^2 * 5"

"""Exact integer arithmetic: Todd denominators, Bernoulli numbers, divisibility.

Everything here is computed on explicit prime factorizations or exact
rationals; there is no floating point anywhere.  Bernoulli numbers follow the
convention t/(e^t - 1) = sum B_n t^n / n!, so B_1 = -1/2; all even-index
values are convention independent.

All functions are pure.  The memo tables are insert-only dicts of immutable
values, which is safe under concurrent read/insert in CPython.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .report import FalsificationError, Record


class InputError(ValueError):
    """Bad command-line input, exit 2 (not a falsified identity or a broken invariant)."""


class FactoredInteger(Record):
    """A positive integer and its prime factorization, sorted (prime,
    exponent) pairs with every exponent >= 1; from_exponents builds each one
    from prime exponents >= 0."""

    __slots__ = ("value", "factorization")

    @staticmethod
    def from_exponents(exps: dict[int, int]) -> "FactoredInteger":
        clean = {p: e for p, e in exps.items() if e != 0}
        value = prod(p**e for p, e in clean.items())
        return FactoredInteger(value, tuple(sorted(clean.items())))

    def exponents(self) -> dict[int, int]:
        return dict(self.factorization)

    def __str__(self) -> str:
        if not self.factorization:
            return str(self.value)
        parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factorization]
        return f"{self.value} = " + " * ".join(parts)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a deterministic sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i, flag in enumerate(sieve) if flag]


@lru_cache(maxsize=None)
def _factorial_exponents(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n! by Legendre's formula, as sorted (prime,
    exponent) pairs; a tuple, so no caller can change the memoised value."""
    exps: list[tuple[int, int]] = []
    for p in primes_up_to(n):
        e, q = 0, p
        while q <= n:
            e += n // q
            q *= p
        exps.append((p, e))
    return tuple(exps)


@lru_cache(maxsize=None)
def todd_denominator(m: int) -> FactoredInteger:
    """The universal denominator T_m = prod_p p^[m/(p-1)] of the degree-m Todd term.

    The product is over primes p <= m+1; larger primes get exponent 0.
    """
    exps = {p: m // (p - 1) for p in primes_up_to(m + 1)}
    return FactoredInteger.from_exponents(exps)


def _divide_todd_denominator(
    m: int, divisor: dict[int, int]
) -> tuple[bool, int | tuple[int, int, int]]:
    """T_m divided by the integer with the given prime exponents: (True,
    quotient), or (False, (prime, needed, available)) at the first prime of
    the divisor that T_m holds too few times.  Once the exponents fit, the
    quotient is still a checked exact division (exact_ratio)."""
    tm = todd_denominator(m)
    total = tm.exponents()
    for p, e in divisor.items():
        if total.get(p, 0) < e:
            return False, (p, e, total.get(p, 0))
    return True, exact_ratio(tm.value, prod(p**e for p, e in divisor.items()))


def check_divisibility_lemma(
    parts_factorial: list[int], parts_todd: list[int], m: int
) -> tuple[bool, int | tuple[int, int, int]]:
    """Check that prod (m_i+1)! * prod T_{m_j} divides T_m, given sum of parts <= m.

    Returns (True, quotient) on success.  A failed exact division would falsify
    the underlying factorial lemma; it is reported as (False, (prime, needed,
    available)) rather than raised, so a falsification is a test failure with a
    witness, not a crash.
    """
    divisor: dict[int, int] = {}
    for mi in parts_factorial:
        for p, e in _factorial_exponents(mi + 1):
            divisor[p] = divisor.get(p, 0) + e
    for mj in parts_todd:
        for p, e in todd_denominator(mj).exponents().items():
            divisor[p] = divisor.get(p, 0) + e
    return _divide_todd_denominator(m, divisor)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (generating function t/(e^t - 1))."""
    return _bernoulli_list(n)[n]


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple[Fraction, ...]:
    # B_k = -1/(k+1) * sum_{j<k} C(k+1, j) B_j, from sum_{j<=k} C(k+1,j) B_j = 0.
    out: list[Fraction] = [Fraction(1)]
    for k in range(1, n + 1):
        s = sum(Fraction(comb(k + 1, j)) * out[j] for j in range(k))
        out.append(-s / (k + 1))
    return tuple(out)


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle for B_n (Akiyama-Tanigawa triangle).

    The triangle natively produces the B_1 = +1/2 convention; the sign is
    flipped at n = 1 to match this module's convention.  The number-theory
    suite takes the denominator side of von-staudt-denominator from it, so
    that identity sets von_staudt_D (which checks itself against bernoulli)
    against the second algorithm.
    """
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return -row[0] if n == 1 else row[0]


def von_staudt_D(g: int) -> FactoredInteger:
    """D_{2g} = prod over primes l with (l-1) | 2g of l^(1 + ord_l(2g)).

    By the von Staudt-Clausen theorem this equals the denominator of
    B_{2g}/2g; that equality is asserted here as a self-check.
    """
    n = 2 * g
    exps: dict[int, int] = {}
    for l in primes_up_to(n + 1):
        if n % (l - 1) == 0:
            ord_l = 0
            q = n
            while q % l == 0:
                ord_l += 1
                q //= l
            exps[l] = 1 + ord_l
    result = FactoredInteger.from_exponents(exps)
    expected = (bernoulli(n) / n).denominator
    if result.value != expected:
        raise FalsificationError(
            f"von Staudt product {result.value} != denominator {expected} of B_{n}/{n}"
        )
    return result


def fulton_macpherson_L(n: int) -> FactoredInteger:
    """Radical (product of distinct prime divisors) of the integer T_n / n!."""
    tn = todd_denominator(n).exponents()
    fact = dict(_factorial_exponents(n))
    leftover: dict[int, int] = {}
    for p, e in tn.items():
        diff = e - fact.get(p, 0)
        if diff < 0:
            raise FalsificationError(f"n! does not divide T_n at prime {p}")
        if diff > 0:
            leftover[p] = diff
    return FactoredInteger.from_exponents({p: 1 for p in leftover})


def check_ekedahl_divisibility(g: int) -> tuple[bool, int | tuple[int, int, int]]:
    """Check 2 * (g-1)! * D_{2g} divides T_{2g}; returns the exact quotient.

    On failure returns (False, (prime, needed, available)).
    """
    divisor = dict(_factorial_exponents(g - 1))
    divisor[2] = divisor.get(2, 0) + 1
    for p, e in von_staudt_D(g).exponents().items():
        divisor[p] = divisor.get(p, 0) + e
    return _divide_todd_denominator(2 * g, divisor)


def exact_ratio(numer: int, denom: int) -> int:
    """numer / denom as a checked exact integer division.

    A nonzero remainder falsifies the divisibility lemma the caller relied
    on, so it raises FalsificationError rather than returning a rounding.
    """
    q, r = divmod(numer, denom)
    if r != 0:
        raise FalsificationError(f"{numer}/{denom} is not an integer")
    return q


def todd_ratio(m: int, j: int, k: int) -> int:
    """The integer T_m / (j! * T_k), asserted exact.  The divisibility lemma
    makes it exact for j + k <= m, and for j + k = m + 1 when j >= 1 (the
    factor j! is the lemma's factorial part j - 1)."""
    return exact_ratio(todd_denominator(m).value, factorial(j) * todd_denominator(k).value)

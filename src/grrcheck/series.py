"""Universal characteristic-class polynomials with integrality certification.

Variable conventions (fixed order, fixed weights):

- ``c1, c2, ...``   Chern variables of the tangent side, weight i
- ``cp1, cp2, ...`` primed Chern variables of the sheaf side, weight i
- ``r``             rank, weight 0 (any integer may be substituted; virtual
                    ranks are permitted)
- ``x``             a divisor class, weight 1
- ``T``             the hyperplane generator of a projective bundle, weight 1

Universal polynomials of degree m are generated with exactly m roots and
reduced to the Chern variables by the classical leading-term elimination in
:mod:`grrcheck.poly`; a stability test confirms that more roots give the same
answer.  Every class the theory asserts to be integral is certified at
generation time, and generation fails loudly (FalsificationError) otherwise.

An independent generation route through power sums (Newton's identities and
log/exp of the defining series) exists for every family; the integrality
suite checks that the two routes agree coefficient by coefficient.  The
mutation hook deliberately corrupts a generated class so the test harness can
confirm that suites really fail when a coefficient is wrong.

Generated classes are memoized under a key that includes the active
mutation, so a mutated class is never returned once the mutation is cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .arith import InputError, todd_denominator, todd_ratio
from .poly import (
    Alphabet,
    GradedPolynomial,
    newton_power_sum,
    orbit_from_product,
    reduce_orbit_to_elementary,
    series_invert,
    series_log,
    weighted_alphabet,
)
from .report import FalsificationError


# ---------------------------------------------------------------------------
# alphabets and basic series
# ---------------------------------------------------------------------------


def tangent_alphabet(m: int) -> Alphabet:
    return weighted_alphabet("c", m)


def sheaf_alphabet(m: int) -> Alphabet:
    return Alphabet([("r", 0)] + [(f"cp{i}", i) for i in range(1, m + 1)])


def ct_alphabet(m: int) -> Alphabet:
    return Alphabet(
        [("r", 0)]
        + [(f"c{i}", i) for i in range(1, m + 1)]
        + [(f"cp{i}", i) for i in range(1, m + 1)]
    )


def todd_root_series(n: int) -> list[Fraction]:
    """x / (1 - e^{-x}) to degree n, by exact series inversion."""
    denom = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    return series_invert(denom, n)


def todd_inverse_root_series(n: int) -> list[Fraction]:
    """(1 - e^{-x}) / x to degree n."""
    return [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]


def one_minus_exp_neg_series(n: int) -> list[Fraction]:
    """1 - e^{-x} to degree n."""
    return [Fraction(0)] + [Fraction(-((-1) ** k), factorial(k)) for k in range(1, n + 1)]


def exp_series(n: int, a: int | Fraction = 1) -> list[Fraction]:
    """e^{a x} to degree n."""
    return [Fraction(a) ** k / factorial(k) for k in range(n + 1)]


def apply_series(coeffs: list[Fraction], p: GradedPolynomial) -> GradedPolynomial:
    """sum coeffs[k] * p^k for a polynomial p with zero constant term."""
    if p.coefficient() != 0:
        raise InputError("series composition needs zero constant term")
    total = GradedPolynomial.constant(p.alphabet, p.truncation, coeffs[0])
    power = GradedPolynomial.constant(p.alphabet, p.truncation, 1)
    for k in range(1, min(len(coeffs) - 1, p.truncation) + 1):
        power = power * p
        if power.is_zero():
            break
        if coeffs[k]:
            total = total + power.scale(coeffs[k])
    return total


def poly_inverse(p: GradedPolynomial, bound: int | None = None) -> GradedPolynomial:
    """Multiplicative inverse of a polynomial with constant term 1, truncated."""
    if p.coefficient() != 1:
        raise InputError("poly_inverse needs constant term 1")
    bound = p.truncation if bound is None else bound
    u = GradedPolynomial.constant(p.alphabet, bound, 1) - p.truncate(bound)
    return apply_series([Fraction(1)] * (bound + 1), u)  # 1/(1-u) = sum u^k


# ---------------------------------------------------------------------------
# the universal classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniversalClass:
    """A degree-m universal polynomial and its certified integral numerator."""

    name: str
    degree: int
    series_part: GradedPolynomial  # exact rational polynomial (e.g. Td_m)
    scale: int  # the cleared denominator (T_m, m!, ...)
    numerator: GradedPolynomial  # scale * series_part, integer coefficients
    integral: bool


@dataclass(frozen=True)
class Mutation:
    """Deliberate corruption of one generated coefficient (test harness only)."""

    kind: str  # todd | ch | ct | q | toddinv
    degree: int
    index: int  # position in the numerator's canonical term order
    delta: Fraction


_MUTATION: Mutation | None = None
_CACHE: dict[tuple, UniversalClass] = {}


def set_mutation(mutation: Mutation | None) -> None:
    global _MUTATION
    _MUTATION = mutation


def current_mutation() -> Mutation | None:
    return _MUTATION


def _finish(
    name: str,
    kind: str,
    degree: int,
    series_part: GradedPolynomial,
    scale: int,
) -> UniversalClass:
    numerator = series_part.scale(scale)
    if _MUTATION is not None and _MUTATION.kind == kind and _MUTATION.degree == degree:
        terms = numerator.sorted_terms()
        if not 0 <= _MUTATION.index < len(terms):
            raise InputError(f"mutation index {_MUTATION.index} out of range for {name}")
        mono, coeff = terms[_MUTATION.index]
        mutated = dict(numerator.terms)
        mutated[mono] = coeff + _MUTATION.delta
        numerator = GradedPolynomial(numerator.alphabet, numerator.truncation, mutated)
        series_part = numerator.scale(Fraction(1, scale))
    if not numerator.is_integral():
        bad = next(
            (m, c) for m, c in numerator.sorted_terms() if c.denominator != 1
        )
        raise FalsificationError(
            f"{name}: numerator coefficient {bad[1]} at {bad[0]} is not an integer",
            identity=f"integrality:{kind}",
            instance=f"degree {degree}",
        )
    return UniversalClass(name, degree, series_part, scale, numerator, True)


def _chern_exponents(
    reduced: dict[tuple[int, ...], Fraction], width: int, offset: int = 1
) -> dict[tuple[int, ...], Fraction]:
    """Turn e-index multisets into exponent vectors of the given width, e-index
    i counting at position i - offset."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for eta, coeff in reduced.items():
        vec = [0] * width
        for i in eta:
            if not 0 <= i - offset < width:
                raise AssertionError(f"e-index {i} outside the {width} exponent slots")
            vec[i - offset] += 1
        terms[tuple(vec)] = coeff
    return terms


def _cached(key: tuple, builder) -> UniversalClass:
    key += (_MUTATION,)
    got = _CACHE.get(key)
    if got is None:
        got = builder()
        _CACHE[key] = got
    return got


def universal_todd(m: int, n_roots: int | None = None) -> UniversalClass:
    """The degree-m Todd polynomial Td_m and its numerator T_m * Td_m.

    Generated by expanding the per-root series over n_roots (default m) roots
    and reducing to elementary symmetric (Chern) variables.
    """
    if m < 0:
        raise InputError("degree must be >= 0")
    n = max(m, 1) if n_roots is None else n_roots

    def build() -> UniversalClass:
        orbit = orbit_from_product(todd_root_series(m), n, m)
        graded = {lam: c for lam, c in orbit.items() if sum(lam) == m}
        reduced = reduce_orbit_to_elementary(graded, n)
        series = GradedPolynomial(tangent_alphabet(m), m, _chern_exponents(reduced, m))
        return _finish("todd", "todd", m, series, todd_denominator(m).value)

    return _cached(("todd", m, n), build)


def universal_chern_character(m: int) -> UniversalClass:
    """The degree-m Chern character term ch_m and its numerator m! * ch_m.

    ch_0 is the rank variable; for m >= 1 the numerator is additionally
    asserted equal to the m-th Newton power sum in the primed variables.
    """
    if m < 0:
        raise InputError("degree must be >= 0")

    def build() -> UniversalClass:
        alph = sheaf_alphabet(m)
        if m == 0:
            series = GradedPolynomial.variable(alph, 0, "r")
            return _finish("ch", "ch", 0, series, 1)
        orbit = {(k,): Fraction(1, factorial(k)) for k in range(1, m + 1)}
        graded = {lam: c for lam, c in orbit.items() if sum(lam) == m}
        reduced = reduce_orbit_to_elementary(graded, m)
        # position 0 is the rank variable
        series = GradedPolynomial(alph, m, _chern_exponents(reduced, m + 1, offset=0))
        out = _finish("ch", "ch", m, series, factorial(m))
        oracle = newton_power_sum(m).rename(
            {f"e{i}": f"cp{i}" for i in range(1, m + 1)}
        ).embed(alph)
        if _MUTATION is None and out.numerator != oracle:
            raise FalsificationError(
                f"ch numerator of degree {m} differs from the Newton power sum",
                identity="integrality:ch",
                instance=f"degree {m}",
            )
        return out

    return _cached(("ch", m), build)


def universal_ct(m: int) -> UniversalClass:
    """The combined class: numerator sum_j T_m/(j! T_{m-j}) * s_j * Td-numerator_{m-j}.

    Every scalar ratio is a checked exact integer division.
    """
    if m < 0:
        raise InputError("degree must be >= 0")

    def build() -> UniversalClass:
        alph = ct_alphabet(m)
        total = GradedPolynomial.zero(alph, m)
        for j in range(m + 1):
            scalar = todd_ratio(m, j, m - j)
            s_j = universal_chern_character(j).numerator.embed(alph).with_bound(m)
            td_part = universal_todd(m - j).numerator.embed(alph).with_bound(m)
            total = total + (s_j * td_part).scale(scalar)
        tm = todd_denominator(m).value
        series = total.scale(Fraction(1, tm))
        return _finish("ct", "ct", m, series, tm)

    return _cached(("ct", m), build)


def divisor_alphabet(m: int) -> Alphabet:
    return Alphabet([(f"c{i}", i) for i in range(1, m)] + [("x", 1)])


def q_poly(m: int) -> UniversalClass:
    """The divisor-side polynomial: T_{m-1} times the degree-m part of
    (1 - e^{-x}) * Td, in c1..c_{m-1} and the divisor variable x."""
    if m < 1:
        raise InputError("degree must be >= 1")

    def build() -> UniversalClass:
        alph = divisor_alphabet(m)
        x = GradedPolynomial.variable(alph, m, "x")
        factor = apply_series(one_minus_exp_neg_series(m), x)
        td_total = GradedPolynomial.constant(alph, m, 1)
        for k in range(1, m):
            td_total = td_total + universal_todd(k).series_part.embed(alph).with_bound(m)
        series = (factor * td_total).graded_part(m)
        return _finish("q", "q", m, series, todd_denominator(m - 1).value)

    return _cached(("q", m), build)


def todd_inverse_numerator(m: int, r: int) -> UniversalClass:
    """m! times the degree (m-r) part of prod_{i<=r} (1-e^{-x_i})/x_i, reduced
    to the elementary symmetric (Chern) variables c1..cr of the r roots."""
    if not 1 <= r <= m:
        raise InputError("need m >= r >= 1")

    def build() -> UniversalClass:
        deg = m - r
        orbit = orbit_from_product(todd_inverse_root_series(deg), r, deg)
        graded = {lam: c for lam, c in orbit.items() if sum(lam) == deg}
        reduced = reduce_orbit_to_elementary(graded, r)
        series = GradedPolynomial(
            weighted_alphabet("c", r), max(deg, 0), _chern_exponents(reduced, r)
        )
        return _finish("toddinv", "toddinv", m, series, factorial(m))

    return _cached(("toddinv", m, r), build)


# ---------------------------------------------------------------------------
# independent generation route (power sums / Newton), used as cross-check
# ---------------------------------------------------------------------------


def _power_sum_in_chern(k: int, n_vars: int, alph: Alphabet) -> GradedPolynomial:
    """p_k written in c1..c_{n_vars} (higher elementary classes set to zero)."""
    p = newton_power_sum(k)
    images: dict[str, GradedPolynomial | Fraction] = {}
    bound = k
    for i in range(1, k + 1):
        if i <= n_vars:
            images[f"e{i}"] = GradedPolynomial.variable(alph, bound, f"c{i}")
        else:
            images[f"e{i}"] = Fraction(0)
    return p.substitute(images, alph, truncation=bound)


def _multiplicative_series_oracle(
    per_root: list[Fraction], m: int, n_vars: int
) -> GradedPolynomial:
    """Degree-m part of prod_roots f(x_j) in c-variables, via exp(sum l_k p_k).

    Independent of the elimination algorithm: uses the logarithm of the
    per-root series and Newton's power-sum polynomials.
    """
    alph = weighted_alphabet("c", n_vars)
    if m == 0:
        return GradedPolynomial.constant(alph, 0, 1)
    logs = series_log(per_root, m)
    u = GradedPolynomial.zero(alph, m)
    for k in range(1, m + 1):
        if logs[k]:
            u = u + _power_sum_in_chern(k, n_vars, alph).with_bound(m).scale(logs[k])
    total = apply_series(exp_series(m), u)
    return total.graded_part(m)


def todd_series_oracle(m: int) -> GradedPolynomial:
    """Rational Td_m by the power-sum route (cross-check for universal_todd)."""
    return _multiplicative_series_oracle(todd_root_series(m), m, m)


def chern_character_oracle(m: int) -> GradedPolynomial:
    """Rational ch_m by Newton power sums (cross-check for the primary route)."""
    alph = sheaf_alphabet(m)
    if m == 0:
        return GradedPolynomial.variable(alph, 0, "r")
    p = newton_power_sum(m).rename({f"e{i}": f"cp{i}" for i in range(1, m + 1)})
    return p.embed(alph).scale(Fraction(1, factorial(m)))


def ct_oracle(m: int) -> GradedPolynomial:
    """Rational (ch * Td)_m assembled from the oracle routes."""
    alph = ct_alphabet(m)
    total = GradedPolynomial.zero(alph, m)
    for j in range(m + 1):
        ch_j = chern_character_oracle(j).embed(alph).with_bound(m)
        td_j = todd_series_oracle(m - j)
        if m - j > 0:
            td_j = td_j.embed(alph).with_bound(m)
        else:
            td_j = GradedPolynomial.constant(alph, m, 1)
        total = total + ch_j * td_j
    return total.graded_part(m)


def q_oracle(m: int) -> GradedPolynomial:
    alph = divisor_alphabet(m)
    x = GradedPolynomial.variable(alph, m, "x")
    factor = apply_series(one_minus_exp_neg_series(m), x)
    td_total = GradedPolynomial.constant(alph, m, 1)
    for k in range(1, m):
        td_total = td_total + todd_series_oracle(k).embed(alph).with_bound(m)
    return (factor * td_total).graded_part(m)


def todd_inverse_oracle(m: int, r: int) -> GradedPolynomial:
    return _multiplicative_series_oracle(todd_inverse_root_series(m - r), m - r, r)


# class kind -> (builder, power-sum oracle), both called with the class's
# arguments: (degree,), or (degree, rank) for toddinv.  The lambdas look the
# functions up by name at call time, so a rebinding of a module name (as the
# benchmark's layer tracer does) is seen through the table as well.
UNIVERSAL_CLASSES = {
    "todd": (lambda *a: universal_todd(*a), lambda *a: todd_series_oracle(*a)),
    "ch": (lambda *a: universal_chern_character(*a), lambda *a: chern_character_oracle(*a)),
    "ct": (lambda *a: universal_ct(*a), lambda *a: ct_oracle(*a)),
    "q": (lambda *a: q_poly(*a), lambda *a: q_oracle(*a)),
    "toddinv": (lambda *a: todd_inverse_numerator(*a), lambda *a: todd_inverse_oracle(*a)),
}

"""Universal characteristic-class polynomials with integrality certification.

Variable conventions (fixed order, fixed weights):

- ``c1, c2, ...``   Chern variables of the tangent side, weight i
- ``cp1, cp2, ...`` primed Chern variables of the sheaf side, weight i
- ``r``             rank, weight 0 (any integer may be substituted; virtual
                    ranks are permitted)
- ``x``             a divisor class, weight 1
- ``T``             the hyperplane generator of a projective bundle, weight 1

A class is stored as its integral numerator over its scale, the cleared
denominator (T_m for Todd and the combined class, m! for the Chern character
and the inverse-Todd classes, T_{m-1} for Q_m); the rational class,
numerator / scale, is derived only where it is read.  Universal polynomials
of degree m are generated with exactly m roots and reduced to the Chern
variables by the classical leading-term elimination in :mod:`grrcheck.poly`,
over the integers: the orbit expansion is scaled first.  A stability test
confirms that more roots give the same answer.  _finish receives every class
as its numerator, applies the mutation hook to it, and certifies it: every
class the theory asserts to be integral is certified at generation time, and
generation fails loudly (FalsificationError) otherwise.

An independent generation route through power sums (Newton's identities and
log/exp of the defining series) returns the same numerator for every family;
the integrality suite compares the two as they are.  That route works on
integer polynomials, and each of its series (Todd, and inverse Todd per
rank) is built once per process: one list of parts, extended when a higher
degree is asked for, and read per degree by one exact scaling (an extension
replaces the list and its denominator one after the other, so the power-sum
route is not safe to run from two threads at once).  The mutation
hook deliberately corrupts a generated class so the test harness can confirm
that suites really fail when a coefficient is wrong.

Generated classes are memoized under a key that includes the active
mutation, so a mutated class is never returned once the mutation is cleared;
a class is a distinct object per mutation, and caches elsewhere key on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from .arith import InputError, todd_denominator, todd_ratio
from .poly import (
    Alphabet,
    GradedPolynomial,
    Scalar,
    newton_power_sum,
    orbit_from_product,
    reduce_orbit_to_elementary,
    series_invert,
    series_log,
    weighted_alphabet,
)
from .report import FalsificationError, Record


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


# ---------------------------------------------------------------------------
# the universal classes
# ---------------------------------------------------------------------------


class UniversalClass:
    """A degree-m universal class: its certified integral numerator over its
    scale.

    Equality and hash are by identity: each class is built once per key of
    the memo (mutation included), so grrcheck.grr keys its per-tower work on
    the class it read."""

    __slots__ = ("name", "degree", "numerator", "scale", "__dict__")  # __dict__ caches series_part

    def __init__(self, name: str, degree: int, numerator: GradedPolynomial, scale: int):
        self.name = name
        self.degree = degree
        self.numerator = numerator  # scale times the class, integer coefficients
        self.scale = scale  # the cleared denominator (T_m, m!, ...)

    @cached_property
    def series_part(self) -> GradedPolynomial:
        """The exact rational class (e.g. Td_m), numerator / scale."""
        return self.numerator.scale(Fraction(1, self.scale))


class Mutation(Record):
    """Deliberate corruption of one generated coefficient (test harness only)."""

    __slots__ = ("kind", "degree", "index", "delta")

    def __init__(self, kind: str, degree: int, index: int, delta: Fraction):
        self.kind = kind  # todd | ch | ct | q | toddinv
        self.degree = degree
        self.index = index  # position in the numerator's canonical term order
        self.delta = delta


_MUTATION: Mutation | None = None
_CACHE: dict[tuple, UniversalClass] = {}


def set_mutation(mutation: Mutation | None) -> None:
    global _MUTATION
    _MUTATION = mutation


def _finish(
    kind: str, degree: int, numerator: GradedPolynomial, scale: int, rank: int = 0
) -> UniversalClass:
    """The class with the given numerator (scale times the class, computed
    as such) after the mutation hook, certified integral; a failure names the
    instance suites.suite_integrality runs, "degree m" or "degree m rank r"."""
    if _MUTATION is not None and _MUTATION.kind == kind and _MUTATION.degree == degree:
        terms = numerator.sorted_terms()
        if not 0 <= _MUTATION.index < len(terms):
            raise InputError(f"mutation index {_MUTATION.index} out of range for {kind}")
        mono, coeff = terms[_MUTATION.index]
        mutated = dict(numerator.terms)
        mutated[mono] = coeff + _MUTATION.delta
        numerator = GradedPolynomial(numerator.alphabet, numerator.truncation, mutated)
    if not numerator.is_integral():
        bad = next(
            (m, c) for m, c in numerator.sorted_terms() if c.denominator != 1
        )
        raise FalsificationError(
            f"{kind}: numerator coefficient {bad[1]} at {bad[0]} is not an integer",
            identity=f"integrality:{kind}",
            instance=f"degree {degree}" + (f" rank {rank}" if rank else ""),
        )
    return UniversalClass(kind, degree, numerator, scale)


def _chern_exponents(
    reduced: dict[tuple[int, ...], Scalar], width: int, offset: int = 1
) -> dict[tuple[int, ...], Scalar]:
    """Turn e-index multisets into exponent vectors of the given width, e-index
    i counting at position i - offset."""
    terms: dict[tuple[int, ...], Scalar] = {}
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


def universal_todd(m: int) -> UniversalClass:
    """The degree-m Todd polynomial Td_m and its numerator T_m * Td_m.

    Generated by expanding the per-root series over m roots (one at m = 0),
    scaling by T_m and reducing to elementary symmetric (Chern) variables.
    """
    if m < 0:
        raise InputError("degree must be >= 0")
    n = max(m, 1)

    def build() -> UniversalClass:
        tm = todd_denominator(m).value
        orbit = orbit_from_product(todd_root_series(m), n, m, tm)
        reduced = reduce_orbit_to_elementary(orbit, n)
        numerator = GradedPolynomial(tangent_alphabet(m), m, _chern_exponents(reduced, m))
        return _finish("todd", m, numerator, tm)

    return _cached(("todd", m), build)


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
            return _finish("ch", 0, GradedPolynomial.variable(alph, 0, "r"), 1)
        # ch_m = p_m / m! and p_m is the single orbit m_(m)
        reduced = reduce_orbit_to_elementary({(m,): 1}, m)
        # position 0 is the rank variable
        numerator = GradedPolynomial(alph, m, _chern_exponents(reduced, m + 1, offset=0))
        out = _finish("ch", m, numerator, factorial(m))
        if _MUTATION is None and out.numerator != chern_character_oracle(m):
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
        return _finish("ct", m, total, todd_denominator(m).value)

    return _cached(("ct", m), build)


def divisor_alphabet(m: int) -> Alphabet:
    return Alphabet([(f"c{i}", i) for i in range(1, m)] + [("x", 1)])


def q_poly(m: int) -> UniversalClass:
    """The divisor-side polynomial: T_{m-1} times the degree-m part of
    (1 - e^{-x}) * Td, in c1..c_{m-1} and the divisor variable x.

    Summed on integers: the x^j coefficient of 1 - e^{-x} is (-1)^(j+1)/j!,
    so Q_m = sum_{k<m} (-1)^(m-k+1) todd_ratio(m-1, m-k, k) x^(m-k)
    Td-numerator_k."""
    if m < 1:
        raise InputError("degree must be >= 1")

    def build() -> UniversalClass:
        alph = divisor_alphabet(m)
        total = GradedPolynomial.zero(alph, m)
        for k in range(m):  # x is the last of the m variables
            ratio = (-1) ** (m - k + 1) * todd_ratio(m - 1, m - k, k)
            x_part = GradedPolynomial(alph, m, {(0,) * (m - 1) + (m - k,): ratio})
            total = total + x_part * universal_todd(k).numerator.embed(alph).with_bound(m)
        return _finish("q", m, total, todd_denominator(m - 1).value)

    return _cached(("q", m), build)


def todd_inverse_numerator(m: int, r: int) -> UniversalClass:
    """m! times the degree (m-r) part of prod_{i<=r} (1-e^{-x_i})/x_i, reduced
    to the elementary symmetric (Chern) variables c1..cr of the r roots."""
    if not 1 <= r <= m:
        raise InputError("need m >= r >= 1")

    def build() -> UniversalClass:
        deg = m - r
        orbit = orbit_from_product(todd_inverse_root_series(deg), r, deg, factorial(m))
        reduced = reduce_orbit_to_elementary(orbit, r)
        numerator = GradedPolynomial(weighted_alphabet("c", r), deg, _chern_exponents(reduced, r))
        return _finish("toddinv", m, numerator, factorial(m), r)

    return _cached(("toddinv", m, r), build)


# ---------------------------------------------------------------------------
# independent generation route (power sums / Newton), used as cross-check
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _power_sum_in_chern(k: int, n_vars: int) -> GradedPolynomial:
    """p_k written in c1..c_{n_vars} (higher elementary classes set to zero):
    newton_power_sum(k) with each e_i renamed c_i, the terms in an e_i with
    i > n_vars dropped, and the bound k."""
    terms = {
        mono[:n_vars] + (0,) * (n_vars - k): c
        for mono, c in newton_power_sum(k).terms.items()
        if not any(mono[n_vars:])
    }
    return GradedPolynomial(weighted_alphabet("c", n_vars), k, terms)


class _PowerSumSeries:
    """The power-sum route for one multiplicative series prod_roots f(x_j) in
    c-variables, via exp(sum l_k p_k), built once per process and extended on
    demand.

    Independent of the elimination algorithm: uses the logarithm l of the
    per-root series and Newton's power-sum polynomials p_k.  The exponential
    E = exp(u), u = sum l_k p_k, is taken degree by degree (Knuth, TAOCP
    vol. 2, 4.7: E_0 = 1 and d E_d = sum_{k=1..d} k l_k p_k E_{d-k}), so no
    power of u is formed, and on integer polynomials: with D the lcm of the
    denominators of the k l_k up to the top degree built, the parts
    G_d = D^d d! E_d have G_0 = 1 and

        G_d = sum_{k=1..d} [D^k k l_k (d-1)!/(d-k)!] p_k G_{d-k},

    every bracket an integer.  A higher top degree can only make D a
    multiple q D, and then each G_d built so far is rescaled by q^d.  The
    one rational step is the exact scaling scale * E_m = G_m * scale /
    (D^m m!), when degree m is read.

    n_vars is the number of c-variables, or None for as many as the top
    degree (the Todd series, whose parts are widened when the top grows)."""

    __slots__ = ("root_series", "n_vars", "den", "parts")

    def __init__(self, root_series, n_vars: int | None = None):
        self.root_series = root_series  # n -> the per-root series to degree n
        self.n_vars = n_vars
        self.den = 1
        self.parts: list[GradedPolynomial] = []  # G_0, G_1, ... up to the top degree

    def read(self, m: int, scale: int) -> GradedPolynomial:
        """scale times E_m, over c1..c<n_vars> (c1..cm for the Todd series),
        with the bound m."""
        if m >= len(self.parts):
            self._extend(m)
        part, n_vars = self.parts[m], m if self.n_vars is None else self.n_vars
        alph = weighted_alphabet("c", n_vars)
        if part.alphabet is not alph:  # a Todd part below the top: E_m is in c1..cm
            part = GradedPolynomial(alph, m, {mono[:n_vars]: c for mono, c in part.terms.items()})
        return part.with_bound(m).scale(Fraction(scale, self.den**m * factorial(m)))

    def _extend(self, top: int) -> None:
        """Build the parts up to degree top, over the c-alphabet of that top."""
        n_vars = top if self.n_vars is None else self.n_vars
        alph = weighted_alphabet("c", n_vars)
        logs = series_log(self.root_series(top), top)
        den = lcm(*(Fraction(k * logs[k]).denominator for k in range(1, top + 1)))
        ratio = den // self.den  # an lcm over more degrees is a multiple
        parts = [
            (part if ratio == 1 else part.scale(ratio**d)).embed(alph).with_bound(top)
            for d, part in enumerate(self.parts)
        ]
        k_u = {  # k -> D^k k l_k p_k, for the nonzero l_k
            k: _power_sum_in_chern(k, n_vars).with_bound(top).scale(den**k * k * logs[k])
            for k in range(1, top + 1)
            if logs[k]
        }
        for d in range(len(parts), top + 1):
            parts.append(self._part(parts, d, k_u, alph, top))
        self.parts, self.den = parts, den

    def _part(
        self,
        parts: list[GradedPolynomial],
        d: int,
        k_u: dict[int, GradedPolynomial],
        alph: Alphabet,
        top: int,
    ) -> GradedPolynomial:
        """G_d from the parts below it."""
        if d == 0:
            return GradedPolynomial.constant(alph, top, 1)
        total = GradedPolynomial.zero(alph, top)
        for k, part in k_u.items():
            if k <= d:
                falling = factorial(d - 1) // factorial(d - k)
                total = total + part.scale(falling) * parts[d - k]
        return total


# the Todd series x/(1 - e^{-x}) per root, and rank r -> the inverse-Todd
# series (1 - e^{-x})/x over r roots
_TODD_SERIES = _PowerSumSeries(todd_root_series)
_TODD_INVERSE_SERIES: dict[int, _PowerSumSeries] = {}


@lru_cache(maxsize=None)
def todd_series_oracle(m: int) -> GradedPolynomial:
    """T_m * Td_m by the power-sum route (cross-check for universal_todd),
    read from the one Todd series once per degree: it reads no mutation,
    unlike the primary classes."""
    return _TODD_SERIES.read(m, todd_denominator(m).value)


def chern_character_oracle(m: int) -> GradedPolynomial:
    """m! * ch_m, the m-th Newton power sum in the primed variables (the rank
    r at m = 0): the cross-check for the primary route."""
    alph = sheaf_alphabet(m)
    if m == 0:
        return GradedPolynomial.variable(alph, 0, "r")
    return newton_power_sum(m).rename({f"e{i}": f"cp{i}" for i in range(1, m + 1)}).embed(alph)


def ct_oracle(m: int) -> GradedPolynomial:
    """T_m * (ch * Td)_m assembled from the oracle numerators: the sum over j
    of (j! ch_j) * (T_{m-j} Td_{m-j}) times T_m / (j! T_{m-j}), each factor
    homogeneous."""
    alph = ct_alphabet(m)
    tm = todd_denominator(m).value
    total = GradedPolynomial.zero(alph, m)
    for j in range(m + 1):
        ch = chern_character_oracle(j).embed(alph).with_bound(m)
        td = todd_series_oracle(m - j).embed(alph).with_bound(m)
        ratio = Fraction(tm, factorial(j) * todd_denominator(m - j).value)
        total = total + (ch * td).scale(ratio)
    return total


def q_oracle(m: int) -> GradedPolynomial:
    """Q_m = T_{m-1} times the degree-m part of (1 - e^{-x}) * Td: the sum over
    k < m of x^(m-k) * (T_k Td_k) times c_{m-k} T_{m-1} / T_k, c_j the x^j
    coefficient of 1 - e^{-x} (Td_0 = 1)."""
    alph = divisor_alphabet(m)
    coeffs = one_minus_exp_neg_series(m)
    tm1 = todd_denominator(m - 1).value
    total = GradedPolynomial.zero(alph, m)
    for k in range(m):  # x is the last of the m variables
        ratio = coeffs[m - k] * Fraction(tm1, todd_denominator(k).value)
        x_part = GradedPolynomial(alph, m, {(0,) * (m - 1) + (m - k,): ratio})
        total = total + x_part * todd_series_oracle(k).embed(alph).with_bound(m)
    return total


def todd_inverse_oracle(m: int, r: int) -> GradedPolynomial:
    """m! times the degree (m-r) part of prod_{i<=r} (1-e^{-x_i})/x_i by the
    power-sum route."""
    series = _TODD_INVERSE_SERIES.get(r)
    if series is None:
        series = _TODD_INVERSE_SERIES[r] = _PowerSumSeries(todd_inverse_root_series, r)
    return series.read(m - r, factorial(m))


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

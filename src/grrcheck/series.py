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
confirms that more roots give the same answer.  Each builder returns its
numerator and scale, and the one gate _universal(kind) around it memoises
the class, applies the mutation hook and certifies it: every class the
theory asserts to be integral is certified at generation time, and
generation fails loudly (FalsificationError) otherwise.

An independent generation route through power sums (Newton's identities and
log/exp of the defining series) returns the same numerator for every family;
the integrality suite compares the two as they are.  That route works on
integer polynomials, and each of its series (Todd, and inverse Todd per
rank) is built once per process: a list of parts G_d = s_d E_d, each over
its own alphabet and normalised by s_d = d! L_1 ... L_d (L_j the lcm of the
denominators of k l_k for k <= j, the k l_k taken from the per-root series
f by n f_n = sum_k k l_k f_{n-k}).  A higher degree only appends parts, and
degree m is read by one exact scaling by scale / s_m (appending is not safe
from two threads at once).  The mutation
hook deliberately corrupts a generated class so the test harness can confirm
that suites really fail when a coefficient is wrong.

Generated classes are memoized under a key that includes the active
mutation, so a mutated class is never returned once the mutation is cleared;
a class is a distinct object per mutation, and caches elsewhere key on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, wraps
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
    return series_invert(todd_inverse_root_series(n), n)


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
        raise AssertionError("series composition needs zero constant term")
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

    __slots__ = ("degree", "numerator", "scale", "__dict__")  # __dict__ caches series_part

    def __init__(self, degree: int, numerator: GradedPolynomial, scale: int):
        self.degree = degree
        self.numerator = numerator  # scale times the class, integer coefficients
        self.scale = scale  # the cleared denominator (T_m, m!, ...)

    @cached_property
    def series_part(self) -> GradedPolynomial:
        """The exact rational class (e.g. Td_m), numerator / scale."""
        return self.numerator.scale(Fraction(1, self.scale))


class Mutation(Record):
    """Deliberate corruption of one generated coefficient (test harness only)."""

    # kind: todd | ch | ct | q | toddinv; index: position in the numerator's
    # canonical term order; delta: the Fraction added there
    __slots__ = ("kind", "degree", "index", "delta")


_MUTATION: Mutation | None = None
_MUTATION_READ = False  # whether a class the active mutation corrupts was read
_CACHE: dict[tuple, UniversalClass] = {}


def set_mutation(mutation: Mutation | None) -> None:
    global _MUTATION, _MUTATION_READ
    _MUTATION, _MUTATION_READ = mutation, False


def mutation_read() -> bool:
    """Whether a check asked for the class the active mutation corrupts since
    set_mutation, whether built (its integrality failing or not) or memoized."""
    return _MUTATION_READ


def integrality_instance(args: tuple[int, ...]) -> str:
    """The instance text of a class of arguments (m,), or (m, r) for toddinv."""
    return f"degree {args[0]}" + "".join(f" rank {r}" for r in args[1:])


def _universal(kind: str):
    """Gate the builder of one kind of class, which returns the numerator
    (scale times the class, computed as such) and the scale of its
    arguments.  The gate memoises the class per arguments and active
    mutation; a class it builds goes through the mutation hook and is
    certified integral, a failure naming the instance
    suites.suite_integrality runs.  The gate is the one object bound to the
    builder's module name."""

    def gate(builder):
        @wraps(builder)
        def universal(*args: int) -> UniversalClass:
            global _MUTATION_READ
            mutation = _MUTATION
            mutated = mutation is not None and (mutation.kind, mutation.degree) == (kind, args[0])
            if mutated:
                _MUTATION_READ = True
            key = (kind, args, mutation)
            got = _CACHE.get(key)
            if got is not None:
                return got
            numerator, scale = builder(*args)
            if mutated:
                terms = numerator.sorted_terms()
                if not 0 <= mutation.index < len(terms):
                    raise InputError(f"mutation index {mutation.index} out of range for {kind}")
                mono, coeff = terms[mutation.index]
                corrupted = {**numerator.terms, mono: coeff + mutation.delta}
                numerator = GradedPolynomial(numerator.alphabet, numerator.truncation, corrupted)
            if not numerator.is_integral():
                bad = next((m, c) for m, c in numerator.sorted_terms() if c.denominator != 1)
                raise FalsificationError(
                    f"{kind}: numerator coefficient {bad[1]} at {bad[0]} is not an integer",
                    identity=f"integrality:{kind}",
                    instance=integrality_instance(args),
                )
            return _CACHE.setdefault(key, UniversalClass(args[0], numerator, scale))

        return universal

    return gate


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


@_universal("todd")
def universal_todd(m: int) -> tuple[GradedPolynomial, int]:
    """The degree-m Todd polynomial Td_m and its numerator T_m * Td_m.

    Generated by expanding the per-root series over m roots (one at m = 0),
    scaling by T_m and reducing to elementary symmetric (Chern) variables.
    """
    tm = todd_denominator(m).value
    orbit = orbit_from_product(todd_root_series(m), max(m, 1), m, tm)
    reduced = reduce_orbit_to_elementary(orbit, max(m, 1))
    return GradedPolynomial(tangent_alphabet(m), m, _chern_exponents(reduced, m)), tm


@_universal("ch")
def universal_chern_character(m: int) -> tuple[GradedPolynomial, int]:
    """The degree-m Chern character term ch_m and its numerator m! * ch_m.

    ch_0 is the rank variable; for m >= 1 the numerator, before the gate's
    mutation hook, is asserted equal to the m-th Newton power sum in the
    primed variables.
    """
    alph = sheaf_alphabet(m)
    if m == 0:
        return GradedPolynomial.variable(alph, 0, "r"), 1
    # ch_m = p_m / m! and p_m is the single orbit m_(m)
    reduced = reduce_orbit_to_elementary({(m,): 1}, m)
    # position 0 is the rank variable
    numerator = GradedPolynomial(alph, m, _chern_exponents(reduced, m + 1, offset=0))
    if numerator != chern_character_oracle(m):
        raise FalsificationError(
            f"ch numerator of degree {m} differs from the Newton power sum",
            identity="integrality:ch",
            instance=integrality_instance((m,)),
        )
    return numerator, factorial(m)


@_universal("ct")
def universal_ct(m: int) -> tuple[GradedPolynomial, int]:
    """The combined class: numerator sum_j T_m/(j! T_{m-j}) * s_j * Td-numerator_{m-j}.

    Every scalar ratio is a checked exact integer division.
    """
    alph = ct_alphabet(m)
    total = GradedPolynomial.zero(alph, m)
    for j in range(m + 1):
        scalar = todd_ratio(m, j, m - j)
        s_j = universal_chern_character(j).numerator.embed(alph).with_bound(m)
        td_part = universal_todd(m - j).numerator.embed(alph).with_bound(m)
        total = total + (s_j * td_part).scale(scalar)
    return total, todd_denominator(m).value


def divisor_alphabet(m: int) -> Alphabet:
    return Alphabet([(f"c{i}", i) for i in range(1, m)] + [("x", 1)])


@_universal("q")
def q_poly(m: int) -> tuple[GradedPolynomial, int]:
    """The divisor-side polynomial: T_{m-1} times the degree-m part of
    (1 - e^{-x}) * Td, in c1..c_{m-1} and the divisor variable x.

    Summed on integers: the x^j coefficient of 1 - e^{-x} is (-1)^(j+1)/j!,
    so Q_m = sum_{k<m} (-1)^(m-k+1) todd_ratio(m-1, m-k, k) x^(m-k)
    Td-numerator_k."""
    alph = divisor_alphabet(m)
    total = GradedPolynomial.zero(alph, m)
    for k in range(m):  # x is the last of the m variables
        ratio = (-1) ** (m - k + 1) * todd_ratio(m - 1, m - k, k)
        x_part = GradedPolynomial(alph, m, {(0,) * (m - 1) + (m - k,): ratio})
        total = total + x_part * universal_todd(k).numerator.embed(alph).with_bound(m)
    return total, todd_denominator(m - 1).value


@_universal("toddinv")
def todd_inverse_numerator(m: int, r: int) -> tuple[GradedPolynomial, int]:
    """m! times the degree (m-r) part of prod_{i<=r} (1-e^{-x_i})/x_i, reduced
    to the elementary symmetric (Chern) variables c1..cr of the r roots."""
    deg = m - r
    orbit = orbit_from_product(todd_inverse_root_series(deg), r, deg, factorial(m))
    reduced = reduce_orbit_to_elementary(orbit, r)
    numerator = GradedPolynomial(weighted_alphabet("c", r), deg, _chern_exponents(reduced, r))
    return numerator, factorial(m)


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
    per-root series f and Newton's power-sum polynomials p_k.  The k l_k come
    from f by their own recurrence, n f_n = sum_{k=1..n} k l_k f_{n-k}
    (f_0 = 1), one entry per new degree.  The exponential E = exp(u),
    u = sum l_k p_k, is taken degree by degree (Knuth, TAOCP vol. 2, 4.7:
    E_0 = 1 and d E_d = sum_{k=1..d} k l_k p_k E_{d-k}), so no power of u is
    formed, and on integer polynomials: with L_j the lcm of the denominators
    of the k l_k for k <= j and s_d = d! L_1 ... L_d, the parts
    G_d = s_d E_d have G_0 = 1 and

        G_d = sum_{k=1..d} [k l_k (d-1)!/(d-k)! L_{d-k+1} ... L_d] p_k G_{d-k},

    every bracket an integer, as L_d is one of its factors.  s_d depends on
    d alone, so a part once built is never touched again: a higher degree
    appends parts.  The one rational step is the exact scaling
    scale * E_m = G_m * scale / s_m, when degree m is read.  Appending is
    not safe from two threads at once: both could append the same degree.

    n_vars is the number of c-variables, or None for the Todd series, whose
    part G_d is in c1..cd."""

    __slots__ = ("root_series", "n_vars", "kl", "scales", "parts")

    def __init__(self, root_series, n_vars: int | None = None):
        self.root_series = root_series  # n -> the per-root series to degree n
        self.n_vars = n_vars
        self.kl = [Fraction(0)]  # k -> k l_k, from k = 1 (a 0 at k = 0)
        self.scales = [1]  # d -> s_d
        self.parts: list[GradedPolynomial] = []  # d -> G_d

    def read(self, m: int, scale: int) -> GradedPolynomial:
        """scale times E_m, over c1..c<n_vars> (c1..cm for the Todd series),
        with the bound m."""
        if m >= len(self.parts):
            f, kl = self.root_series(m), self.kl
            for d in range(len(kl), m + 1):
                kl.append(d * f[d] - sum(kl[k] * f[d - k] for k in range(1, d)))
                self.scales.append(self.scales[-1] * d * lcm(*(a.denominator for a in kl)))
            for d in range(len(self.parts), m + 1):
                self.parts.append(self._part(d))
        return self.parts[m].scale(Fraction(scale, self.scales[m]))

    def _part(self, d: int) -> GradedPolynomial:
        """G_d from the parts below it, over c1..cd for the Todd series."""
        alph = weighted_alphabet("c", d if self.n_vars is None else self.n_vars)
        if d == 0:
            return GradedPolynomial.constant(alph, 0, 1)
        s_d, total = self.scales[d], GradedPolynomial.zero(alph, d)
        for k in range(1, d + 1):
            a = self.kl[k]
            if a:
                bracket = a.numerator * (s_d // (d * self.scales[d - k]) // a.denominator)
                p_k = _power_sum_in_chern(k, len(alph)).with_bound(d).scale(bracket)
                total = total + p_k * self.parts[d - k].embed(alph).with_bound(d)
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
    """m! * ch_m, the m-th Newton power sum with each e_i read as cp_i, the
    rank r first (r itself at m = 0): the cross-check for the primary route."""
    alph = sheaf_alphabet(m)
    if m == 0:
        return GradedPolynomial.variable(alph, 0, "r")
    return GradedPolynomial(alph, m, {(0,) + e: c for e, c in newton_power_sum(m).terms.items()})


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
# arguments: (degree,), or (degree, rank) for toddinv.  The benchmark's layer
# tracer wraps the five builders and five oracles by function identity and
# rebinds every module name that holds them, so each builder's module name is
# its one gate object, and the lambdas look the functions up by name at call
# time, so such a rebinding is seen through the table as well.
UNIVERSAL_CLASSES = {
    "todd": (lambda *a: universal_todd(*a), lambda *a: todd_series_oracle(*a)),
    "ch": (lambda *a: universal_chern_character(*a), lambda *a: chern_character_oracle(*a)),
    "ct": (lambda *a: universal_ct(*a), lambda *a: ct_oracle(*a)),
    "q": (lambda *a: q_poly(*a), lambda *a: q_oracle(*a)),
    "toddinv": (lambda *a: todd_inverse_numerator(*a), lambda *a: todd_inverse_oracle(*a)),
}

"""Rational routes computed with Fractions, kept as test references.

grrcheck checks its integral statements on integer numerators.  The routes
here are the classical rational ones, which the tests compare it against:

- rational_grr_cross_check: rational Riemann-Roch on a morphism from a
  cut-out source (a tower is the one with no cuts), from the series parts
  (numerator / scale) of ch and Td, each substituted in one pass of the
  general loop of tests/substitution_reference.py (substitute_on_tower);
- q_numerator_reference: the numerator of Q_m as T_{m-1} times the degree-m
  part of the full product (1 - e^{-x}) * (1 + Td_1 + ... + Td_{m-1}), with
  the rational Td_k; grrcheck.series.q_poly sums the integer terms
  x^(m-k) Td-numerator_k instead.
"""

from __future__ import annotations

from grrcheck.arith import InputError, todd_denominator
from grrcheck.geometry import ChowClass, KClass, Tower, pushforward_chow
from grrcheck.grr import (
    MorphismDatum,
    _instance_images,
    _source_relative_tangent,
    _tangent_chern,
)
from grrcheck.poly import GradedPolynomial
from grrcheck.series import (
    apply_series,
    divisor_alphabet,
    one_minus_exp_neg_series,
    universal_chern_character,
    universal_todd,
)
from substitution_reference import substitute_terms


def substitute_on_tower(poly: GradedPolynomial, tower: Tower, images: dict) -> ChowClass:
    """A polynomial with Fraction coefficients (a series part) at tower
    classes and scalars, one image per variable, by one pass of the
    general substitution loop; grrcheck.grr.evaluate_universal reads only
    integral numerators."""
    grouped = substitute_terms(poly.terms, poly.alphabet.names(), images, tower.unit_chow())
    return grouped.get((), tower.zero_chow())


def rational_grr_cross_check(f: MorphismDatum, F: KClass, n: int) -> bool:
    """Classical rational Riemann-Roch computed independently with Fractions:
    ch_n(f_*[F]) = f_*((ch(F) td(T_X) td(f^* T_S)^{-1})_{d+n}),
    with X the source, a cut-out in a tower (the tower itself when there are
    no cuts), its classes pushed into the tower's ring by f.source.push.

    This is the torsion-free shadow of the integral statement; agreement here
    plus agreement of the integral sides pins both computations.
    """
    d = f.relative_dimension
    if d < 0:
        raise InputError("rational cross-check implemented for d >= 0")
    target = f.target
    pushed, source = _instance_images(f, F, n)
    lhs = substitute_on_tower(universal_chern_character(n).series_part, target, pushed)
    ambient = f.ambient
    rel_chern = _tangent_chern(_source_relative_tangent(f))
    td_rel_chern = {f"c{i}": rel_chern.graded_part(i) for i in range(1, d + n + 1)}
    total = ambient.zero_chow()
    for j in range(d + n + 1):
        ch_j = substitute_on_tower(universal_chern_character(j).series_part, ambient, source)
        td_j = substitute_on_tower(
            universal_todd(d + n - j).series_part, ambient, td_rel_chern
        )
        total = total + ch_j * td_j
    pushed_total = f.source.push(total.graded_part(d + n))
    rhs = pushforward_chow(pushed_total, ambient.n_levels - f.base_levels)
    return lhs.serialize() == rhs.serialize()


def q_numerator_reference(m: int) -> GradedPolynomial:
    """T_{m-1} times the degree-m part of (1 - e^{-x}) * Td in c1..c_{m-1}
    and x, by the full product of the two series in Fractions."""
    alph = divisor_alphabet(m)
    x = GradedPolynomial.variable(alph, m, "x")
    factor = apply_series(one_minus_exp_neg_series(m), x)
    td_total = GradedPolynomial.constant(alph, m, 1)
    for k in range(1, m):
        td_total = td_total + universal_todd(k).series_part.embed(alph).with_bound(m)
    series = (factor * td_total).graded_part(m)
    return series.scale(todd_denominator(m - 1).value)

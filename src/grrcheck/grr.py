"""Two-sided Riemann-Roch checks on model geometries and formal fibrations.

Every checker assembles both sides of one exact identity in the integer Chow
ring of a tower (or over a formal fibration's fiber classes), serializes
them through grrcheck.poly.serialize_keyed, and reports byte-equality.  All
scalar ratios of Todd denominators are performed as checked exact integer
divisions; a failed division is a falsification, not a rounding issue.  Each
T_a/(j! T_b) is grrcheck.arith.todd_ratio; only the T_a/(T_b T_c) of
decomposition_rhs is spelled out with exact_ratio.

Every universal class on a tower, ch, Td, the combined class ct, Q_m and
the inverse Todd numerators alike, is evaluated by evaluate_universal(uc,
tower, c_side, sheaf): each c<i> is c_i of the c-side (an absolute,
fiberwise or cut-out tangent, or a cut-out's normal class), r the sheaf's
rank and every other variable (cp<i>, x) a Chow class of the sheaf map.
One pass over the class's monomials fills each entry of its cache with a
Horner scheme in the nonzero sheaf classes, the rank folded into the int
coefficients and the c_i multiplied out; each call then walks that scheme
(grrcheck.poly.horner_eval).  On a formal relative curve or surface,
_fiber_ct evaluates ct_m over the fiber classes by GradedPolynomial.substitute,
which folds its one-term images into packed keys and walks a Horner scheme in
the rest; f_* of a fiber monomial is its coefficient, read by the check.

Degree rule: above a tower's dimension a class is zero.  Only
check_main_theorem meets such a degree (n > dim S); it returns zero classes
with no pushforward, images or evaluation, but still reads every universal
class the full path reads, in its order, so a non-integral mutation fails
the same way: ct_m, and reading ct_m reads ch_0..ch_m and Td_0..Td_m.  Every
other caller evaluates a class of degree at most its tower's dimension, so
evaluate_universal has no degree branch.

Work that depends only on the tower is cached in the tower's _cache.  A
process keeps one tower per level list (geometry.tower), so each entry
serves every query, suite row and prefix that names those levels.  Where a
universal class is read, the key holds that class itself (UniversalClass
hashes by identity), so a class rebuilt under a mutation never meets work
done with the clean one, and this module need not know that mutations exist:

    ("tangent-chern", c-side)                c(c-side): a tangent or normal class
    (uc, c-side, rank, live)                 uc as a Horner scheme in the live
                                             sheaf classes
    ("relative-tangent", base levels, cuts)  T_X - f^*T_S on the ambient

One main-theorem instance at n <= dim S pushes its sheaf forward once and
builds the Chern images of the sheaf and of its pushforward once, for all
three of its checks; check_immersion reads the same images, with no degree
skip.  The combined class is never assembled from the ch * td
factorisation, so main-theorem-decomposition stays an independent check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping

from .arith import bernoulli, exact_ratio, todd_denominator, todd_ratio
from .geometry import (
    ChowClass,
    KClass,
    Tower,
    VirtualCompleteIntersection,
    pullback_k,
    pushforward_chow,
    pushforward_k,
)
from .poly import Alphabet, GradedPolynomial, horner_eval, horner_scheme
from .report import FalsificationError, VerificationReport
from .series import (
    UniversalClass,
    q_poly,
    todd_inverse_numerator,
    universal_chern_character,
    universal_ct,
    universal_todd,
)


# ---------------------------------------------------------------------------
# evaluation of universal polynomials in the Chow ring of a tower
# ---------------------------------------------------------------------------


def _tangent_chern(c_side: KClass) -> ChowClass:
    """The total Chern class of a c-side class, cached on its tower per
    ("tangent-chern", line terms): one entry serves an absolute, fiberwise
    or cut-out tangent, or a normal class, and every degree read from it."""
    key = ("tangent-chern", frozenset(c_side.line_terms.items()))
    if key not in c_side.tower._cache:
        c_side.tower._cache[key] = c_side.total_chern()
    return c_side.tower._cache[key]


def _sheaf_images(F: KClass, upto: int) -> dict[str, ChowClass | int]:
    """The sheaf-side variables r, cp1..cp<upto> at F."""
    images = {"r": F.rank()}
    if upto > 0:  # no total Chern class to build below degree 1 (e.g. every n = 0 instance)
        total = F.total_chern()
        images |= {f"cp{i}": total.graded_part(i) for i in range(1, upto + 1)}
    return images


@lru_cache(maxsize=None)
def _roles(alphabet: Alphabet) -> tuple[dict[str, int], tuple[str, ...]]:
    """The variables of a universal class's alphabet by role, once per
    alphabet: {c<i>: i}, read from the c-side's total Chern class, and the
    names other than r (cp<i>, x), read from the sheaf map."""
    names = alphabet.names()
    chern = {name: int(name[1:]) for name in names if name[0] == "c" and name[1:].isdigit()}
    return chern, tuple(name for name in names if name not in chern and name != "r")


def evaluate_universal(
    uc: UniversalClass, tower: Tower, c_side: KClass | None = None, sheaf: Mapping = {}
) -> ChowClass:
    """A universal class's numerator on the tower: each c<i> is c_i of the
    c-side class (a tangent or a normal class), r the int sheaf["r"], and
    each other variable (cp<i>, x) the Chow class sheaf[name].  Every
    caller reads a class of degree at most the tower's dimension.

    One cache entry per (uc, c-side line terms, rank, live), live the names
    of the nonzero sheaf classes: uc compiled to a Horner scheme in the live
    classes by one pass over the numerator terms: the rank's power scales a
    term's int coefficient, a term in a zero sheaf class (or in r at rank 0)
    is skipped, and the c-side factor is a product of powers of the c_i, each
    power formed once per compile, the term skipped at a zero product; its
    value is added under its exponents of the live classes.  Each call walks
    that scheme at the live classes.
    """
    numerator = uc.numerator
    chern, others = _roles(numerator.alphabet)
    live = tuple(name for name in others if not sheaf[name].is_zero())
    rank = sheaf.get("r")
    key = (uc, frozenset(c_side.line_terms.items()) if chern else None, rank, live)
    if key not in tower._cache:
        names = numerator.alphabet.names()
        r = names.index("r") if "r" in names else None
        dead = [names.index(name) for name in others if name not in live]
        kept = [names.index(name) for name in live]
        total = _tangent_chern(c_side) if chern else None
        images = {names.index(name): total.graded_part(i) for name, i in chern.items()}
        powers = {(pos, 1): image for pos, image in images.items()}

        def power(pos: int, e: int) -> ChowClass:
            if (pos, e) not in powers:
                powers[pos, e] = power(pos, e - 1) * images[pos]
            return powers[pos, e]

        grouped: dict[tuple[int, ...], ChowClass] = {}
        for mono, coeff in numerator.terms.items():
            if r is not None:
                coeff *= rank ** mono[r]  # zero for a term in r at rank 0
            if not coeff or any(mono[pos] for pos in dead):
                continue
            value = None
            for pos in images:
                if mono[pos]:
                    factor = power(pos, mono[pos])
                    value = factor if value is None else value * factor
                    if value.is_zero():
                        break
            else:
                value = tower.unit_chow() if value is None else value
                if coeff != 1:
                    value = value.scale(coeff)
                exps = tuple(mono[pos] for pos in kept)
                grouped[exps] = grouped[exps] + value if exps in grouped else value
        grouped = {e: c for e, c in grouped.items() if not c.is_zero()}
        tower._cache[key] = horner_scheme(grouped or {(0,) * len(live): tower.zero_chow()})
    return horner_eval(tower._cache[key], [sheaf[name] for name in live])


def ct_on_tower(tower: Tower, tangent: KClass, sheaf: Mapping, m: int) -> ChowClass:
    """The degree-m combined-class numerator on the tower, at the tangent
    class and the sheaf map {"r": rank, "cp1": ..., "cp<m>": ...}."""
    return evaluate_universal(universal_ct(m), tower, tangent, sheaf)


# ---------------------------------------------------------------------------
# morphism data and the error functional
# ---------------------------------------------------------------------------


class MorphismDatum:
    """A structure morphism from a source, a cut-out locus in a tower, to a
    lower level of the tower (possibly the point), or the closed immersion
    of the locus into its tower (base_levels all the levels, relative
    dimension -codim).  A bare Tower is the cut-out with no cuts: it is
    wrapped here, the one place that reads the kind of source; the
    benchmark's workloads pass one.  Construction fixes the ambient tower,
    the target and the relative dimension."""

    __slots__ = ("source", "base_levels", "label", "ambient", "target", "relative_dimension")

    def __init__(
        self, source: Tower | VirtualCompleteIntersection, base_levels: int, label: str = ""
    ):
        if isinstance(source, Tower):
            source = VirtualCompleteIntersection(source, ())
        self.source = source
        self.base_levels = base_levels
        self.label = label
        self.ambient = source.ambient
        self.target = self.ambient.prefix(base_levels)
        self.relative_dimension = source.dim - self.target.dim

    def instance(self, sheaf_label: str, n: int) -> str:
        """The instance text of a main-theorem check, passing or failed."""
        return f"{self.label}/sheaf={sheaf_label}/n={n}"


def _source_relative_tangent(f: MorphismDatum) -> KClass:
    """The fiberwise tangent difference T_X - f^*T_S of the source, cached on
    the ambient tower per ("relative-tangent", base levels, cuts)."""
    key = ("relative-tangent", f.base_levels, f.source.cuts)
    cache = f.ambient._cache
    if key not in cache:
        tangent = f.source.tangent_class()
        cache[key] = tangent - pullback_k(f.target.tangent_class(), f.ambient)
    return cache[key]


def _pushed_ct(
    f: MorphismDatum, source: Mapping[str, ChowClass | int], m: int, tangent: KClass
) -> ChowClass:
    """f_*(ct_m(F, X)) on the target at the tangent class given (the source's
    own or its fiberwise difference): ct_m on the ambient, pushed into it by
    f.source.push, then down to the target; source holds F's ambient sheaf
    images up to degree at least m."""
    alpha = f.source.push(ct_on_tower(f.ambient, tangent, source, m))
    return pushforward_chow(alpha, f.ambient.n_levels - f.base_levels)


def _instance_images(
    f: MorphismDatum, F: KClass, n: int
) -> tuple[dict[str, ChowClass | int], dict[str, ChowClass | int]]:
    """The sheaf images every side of one main-theorem instance reads, built
    once: (pushed, source) with pushed those of f_*[F] on the target up to
    degree n and source those of F on the ambient up to degree d+n."""
    pushed = pushforward_k(f.source.koszul_class(F), f.ambient.n_levels - f.base_levels)
    return _sheaf_images(pushed, n), _sheaf_images(F, max(f.relative_dimension + n, 0))


def grr_error(
    f: MorphismDatum, n: int, pushed: Mapping, source: Mapping
) -> tuple[ChowClass, ChowClass]:
    """Both sides of the integral Riemann-Roch identity in codimension n of
    the target, from the images of _instance_images; the error is lhs - rhs
    and the theorem asserts it vanishes.

    d >= 0: (T_{d+n}/T_n) ct_n(f_*[F], S)  vs  f_*(ct_{d+n}(F, X))
    d <  0:            ct_n(f_*[F], S)     vs  (T_n/T_{n+d}) f_*(ct_{n+d}(F, X))
    """
    d = f.relative_dimension
    target = f.target
    lhs = ct_on_tower(target, target.tangent_class(), pushed, n)
    if d >= 0:
        lhs = lhs.scale(todd_ratio(d + n, 0, n))
        rhs = _pushed_ct(f, source, d + n, f.source.tangent_class())
    elif n + d < 0:
        rhs = target.zero_chow()
    else:
        rhs = _pushed_ct(f, source, n + d, f.source.tangent_class())
        rhs = rhs.scale(todd_ratio(n, 0, n + d))
    return lhs, rhs


def corollary_sides(
    f: MorphismDatum, n: int, s_n: ChowClass, source: Mapping
) -> tuple[ChowClass, ChowClass]:
    """(T_{d+n}/n!) s_n(f_*[F])  vs  f_*(ct_{d+n}(F, X/S)) with the fiberwise
    tangent difference (relative-dimension >= 0 form), from s_n(f_*[F]) and
    the source images of _instance_images."""
    d = f.relative_dimension
    rhs = _pushed_ct(f, source, d + n, _source_relative_tangent(f))
    return s_n.scale(todd_ratio(d + n, n, 0)), rhs


def decomposition_rhs(f: MorphismDatum, n: int, pushed: Mapping, s_n: ChowClass) -> ChowClass:
    """Target-side regrouping that links the two statement shapes: the main
    theorem's left side (T_{d+n}/T_n) ct_n(f_*F, S) equals
    sum_j [T_{d+n}/(T_{d+n-j} T_j)] * [(T_{d+n-j}/(n-j)!) s_{n-j}(f_*F)] *
    Td-numerator_j(T_S), with pushed from _instance_images and the j = 0
    factor s_n(f_*[F]) given."""
    d = f.relative_dimension
    target = f.target
    rhs = target.zero_chow()
    for j in range(n + 1):
        outer = exact_ratio(
            todd_denominator(d + n).value,
            todd_denominator(d + n - j).value * todd_denominator(j).value,
        )
        inner = todd_ratio(d + n - j, n - j, 0)
        s_part = s_n if j == 0 else evaluate_universal(
            universal_chern_character(n - j), target, sheaf=pushed
        )
        todd_part = evaluate_universal(universal_todd(j), target, target.tangent_class())
        rhs = rhs + (s_part * todd_part).scale(outer * inner)
    return rhs


def check_main_theorem(
    f: MorphismDatum, F: KClass, n: int, sheaf_label: str
) -> list[VerificationReport]:
    """The main identity, the numerator-corollary form (when applicable), and
    the scalar regrouping that connects them, on one geometry instance.

    f_*[F], the Chern images of F and f_*[F] and s_n(f_*[F]) are built once
    here and shared by the three checks; the tangent-side classes come from
    the per-tower caches.  Above the base's dimension CH^n(S) = 0 and every
    side is the zero class: the instance reads ct_n and ct_{d+n}, which read
    ch_0..ch_n and Td_0..Td_n as the full path does, then compares the zero
    class with itself without pushing F forward or evaluating anything."""
    instance = f.instance(sheaf_label, n)
    d = f.relative_dimension
    if n > f.target.dim:
        universal_ct(n)
        if d + n >= 0:
            universal_ct(d + n)
        lhs = rhs = cl = cr = dr = f.target.zero_chow()
    else:
        pushed, source = _instance_images(f, F, n)
        lhs, rhs = grr_error(f, n, pushed, source)
        if d >= 0:
            s_n = evaluate_universal(universal_chern_character(n), f.target, sheaf=pushed)
            cl, cr = corollary_sides(f, n, s_n, source)
            dr = decomposition_rhs(f, n, pushed, s_n)
    lhs_text = lhs.serialize()
    reports = [VerificationReport.compare("main-theorem", instance, lhs_text, rhs.serialize())]
    if d >= 0:
        reports += [
            VerificationReport.compare(
                "main-theorem-corollary", instance, cl.serialize(), cr.serialize()
            ),
            VerificationReport.compare(
                "main-theorem-decomposition", instance, lhs_text, dr.serialize()
            ),
        ]
    return reports


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------


def immersion_instance(label: str, z: VirtualCompleteIntersection, F: KClass, n: int) -> str:
    """The instance text of check_immersion's first report, passing or failed."""
    return f"{label}/cuts={z.cuts}/F={F.line_terms}/n={n}"


def check_immersion(
    z: VirtualCompleteIntersection, F: KClass, n: int, label: str
) -> list[VerificationReport]:
    """Codimension-shift identity for a cut-out locus, plus the vanishing and
    decomposition of the character numerator of the pushed-forward class.

    The shift identity is the main theorem for the closed immersion of the
    locus into its ambient tower (target the ambient, relative dimension
    -codim): grr_error's d < 0 branch with its two sides swapped,
    (T_n/T_{n-r}) i_*(ct_{n-r}(F, Z))  vs  ct_n(i_*[F], W).  The character
    side reads the same images: those of the Koszul class i_*[F] up to degree
    n, and those of F up to degree n - r."""
    w, r = z.ambient, z.codim
    instance = immersion_instance(label, z, F, n)
    immersion = MorphismDatum(z, w.n_levels)
    pushed, source = _instance_images(immersion, F, n)
    rhs, lhs = grr_error(immersion, n, pushed, source)
    reports = [
        VerificationReport.compare(
            "immersion-shift",
            instance,
            lhs.serialize(),
            rhs.serialize(),
            notes="below the codimension both sides vanish" if n < r else None,
        )
    ]

    # character-numerator pushforward: vanishing below codim, explicit sum above
    normal = z.normal_class()
    for m in range(0, n + 1):
        lhs_m = evaluate_universal(universal_chern_character(m), w, sheaf=pushed)
        rhs_m = w.zero_chow()  # the sum is empty below the codimension
        for l in range(r, m + 1):
            s_part = evaluate_universal(universal_chern_character(m - l), w, sheaf=source)
            inv_part = evaluate_universal(todd_inverse_numerator(l, r), w, normal)
            rhs_m = rhs_m + (s_part * inv_part).scale(comb(m, l))
        reports.append(
            VerificationReport.compare(
                "immersion-character-pushforward",
                f"{instance}/degree={m}",
                lhs_m.serialize(),
                z.push(rhs_m).serialize(),
                notes="vanishing below the codimension" if m < r else None,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# divisor calculus
# ---------------------------------------------------------------------------


def _restricted_td(w: Tower, cuts: tuple, m: int) -> ChowClass:
    """Pushforward of the degree-m Todd numerator of the cut-out locus:
    Td-numerator_m(virtual tangent) times the product of the cuts."""
    z = VirtualCompleteIntersection(w, cuts)
    return z.push(evaluate_universal(universal_todd(m), w, z.tangent_class()))


def divisor_instance(label: str, a: int, m: int) -> str:
    """The instance text of check_divisor_calculus's first report, passing or failed."""
    return f"{label}/D={a}h/m={m}"


def check_divisor_calculus(
    w: Tower, a: int, b: int, m: int, label: str
) -> list[VerificationReport]:
    """Divisor calculus on a tower with multiples a*h and b*h of the first
    hyperplane: single-divisor restriction, the two-divisor decomposition,
    the difference decomposition with its cutoff, the combined-class linkage,
    and the matching additivity-defect bookkeeping on both sides."""
    h, zeros = w.hyperplane(1), (0,) * (w.n_levels - 1)  # c*h is the vector (c, *zeros)
    delta = w.dim - 1

    def cut(c: int) -> tuple:
        return ((c, *zeros),)

    # each side below is evaluated once and read by every report that needs it;
    # Q_m at the tangent Chern classes and at a*h, b*h, their sum and difference
    da, db = h.scale(a), h.scale(b)
    td_a, td_b, td_sum, lhs_diff = (
        evaluate_universal(q_poly(m), w, w.tangent_class(), {"x": d})
        for d in (da, db, da + db, da - db)
    )
    restricted_a = _restricted_td(w, cut(a), m - 1)
    restricted_b = _restricted_td(w, cut(b), m - 1)
    # the codimension-2 term of the two-divisor decomposition
    both = w.zero_chow()
    if m >= 2:
        both = _restricted_td(w, cut(a) + cut(b), m - 2).scale(todd_ratio(m - 1, 0, m - 2))
    off_a, off_b, off_sum = (w.structure_sheaf() - w.line((-c, *zeros)) for c in (a, b, a + b))
    linked = ct_on_tower(w, w.tangent_class(), _sheaf_images(off_a, m), m)

    # the difference of two divisors, with the cutoff min(m-1, delta)
    rhs_diff = restricted_a - restricted_b
    for k in range(1, min(m - 1, delta) + 1):
        with_x = _restricted_td(w, cut(b) * k + cut(a), m - 1 - k)
        with_y = _restricted_td(w, cut(b) * k + cut(b), m - 1 - k)
        rhs_diff = rhs_diff + (with_x - with_y).scale(todd_ratio(m - 1, 0, m - 1 - k))

    # K-side decompositions
    def koszul(cuts: tuple) -> KClass:
        return VirtualCompleteIntersection(w, cuts).koszul_class(w.structure_sheaf())

    koszul_a, koszul_b, koszul_ab = koszul(cut(a)), koszul(cut(b)), koszul(cut(a) + cut(b))
    lhs_kd = w.structure_sheaf() - w.line((b - a, *zeros))
    rhs_kd = koszul_a - koszul_b
    for k in range(1, delta + 1):
        with_x = koszul(cut(b) * k + cut(a))
        with_y = koszul(cut(b) * k + cut(b))
        rhs_kd = rhs_kd + with_x - with_y

    one, two = divisor_instance(label, a, m), f"{label}/D1={a}h/D2={b}h"
    diff, defect = f"{label}/D={a}h-{b}h", f"{label}/D={a}h/D'={b}h"
    sides = [  # (identity, instance, lhs, rhs, notes)
        # (a) the restriction form for a single divisor, and its combined-class linkage
        ("divisor-restriction", one, td_a, restricted_a, None),
        ("divisor-ct-linkage", one, td_a.scale(todd_ratio(m, 0, m - 1)), linked, None),
        # (b) the sum of two divisors, and (c) their difference
        ("divisor-two-term", f"{two}/m={m}", td_sum, restricted_a + restricted_b - both, None),
        ("divisor-difference", f"{diff}/m={m}", lhs_diff, rhs_diff,
         f"correction sum cut at min(m-1, {delta}); higher terms vanish by degree on the "
         "left, geometrically on the right"),
        ("divisor-k-two-term", two, off_sum, koszul_a + koszul_b - koszul_ab, None),
        ("divisor-k-difference", diff, lhs_kd, rhs_kd, None),
        # additivity defect bookkeeping: the same codimension-2 coefficient (-1)
        # appears on the cycle side and the K side
        ("divisor-defect-cycles", f"{defect}/m={m}", td_sum - td_a - td_b, both.scale(-1),
         "codimension-2 defect coefficient -1"),
        ("divisor-defect-k", defect, off_sum - off_a - off_b, koszul_ab.scale(-1),
         "matches the cycle-side defect coefficient -1 in codimension 2"),
    ]
    return [
        VerificationReport.compare(identity, instance, lhs.serialize(), rhs.serialize(), notes)
        for identity, instance, lhs, rhs, notes in sides
    ]


# ---------------------------------------------------------------------------
# formal fibrations: symbolic relative curves and surfaces
# ---------------------------------------------------------------------------


def _fiber_ct(
    m: int, tangent_chern: Mapping[int, GradedPolynomial], sheaf_c1: GradedPolynomial | int
) -> GradedPolynomial:
    """ct_m's numerator for a line bundle on a formal fibration: c<i> is the
    relative tangent's tangent_chern[i] (0 if absent), r is 1, cp1 the sheaf's
    c1 sheaf_c1 (0 for O) and every other cp<i> 0, over the tangent classes'
    fiber alphabet at their one bound."""
    first = next(iter(tangent_chern.values()))
    fiber, bound = first.alphabet, first.truncation
    images: dict[str, GradedPolynomial | int] = {"r": 1}
    for i in range(1, m + 1):
        images[f"c{i}"] = tangent_chern.get(i, GradedPolynomial.zero(fiber, bound))
        images[f"cp{i}"] = sheaf_c1 if i == 1 else 0
    return universal_ct(m).numerator.with_bound(bound).substitute(images, fiber)


def kappa_expected(n: int) -> Fraction:
    """The coefficient of kappa<n> in the displayed right side of the
    relative-curve identity in degree n, T_{n+1} B_{n+1} / (n+1)!: 0 for
    even n >= 2, where B_{n+1} = 0."""
    return (
        Fraction(todd_denominator(n + 1).value)
        * bernoulli(n + 1)
        / factorial(n + 1)
    )


def check_kappa_identity(n: int) -> VerificationReport:
    """Pushforward of the combined class of the structure sheaf on a formal
    relative curve, against the displayed tautological-class multiple.  K is
    c1 of the relative cotangent sheaf (tangent c1 = -K); ct_{n+1}(O) is
    homogeneous of degree n+1 in K alone, so it is c K^(n+1), no term is
    dropped, and f_* of it is c kappa<n>."""
    minus_k = GradedPolynomial.variable(Alphabet([("K", 1)]), n + 1, "K").scale(-1)
    value = _fiber_ct(n + 1, {1: minus_k}, 0).coefficient(K=n + 1)
    coeff = kappa_expected(n)
    if coeff.denominator != 1:
        raise FalsificationError(
            f"tautological coefficient {coeff} is not an integer",
            identity="kappa-multiple",
            instance=f"n={n}",
        )
    kappa = GradedPolynomial.variable(Alphabet([(f"kappa{n}", n)]), n, f"kappa{n}")
    notes = (
        "left side equals (T_{n+1}/n!) s_n of the pushed structure sheaf; the "
        "dualizing-side convention matched is s_n(f_*[O]) = (-1)^(n-1) s_n(Hodge)"
    )
    if n == 1:
        notes = "degree 1 instance: twelve times the Hodge class equals kappa1; " + notes
    return VerificationReport.compare(
        "kappa-multiple",
        f"n={n}",
        kappa.scale(value).serialize(),
        kappa.scale(coeff).serialize(),
        notes=notes,
    )


def check_surface_det_identity(m: int) -> VerificationReport:
    """Exponent of the intersection-bundle generator in the 24th-power
    determinant identity for a formal relative surface, at power m.

    w is c1 of the relative dualizing sheaf (tangent c1 = -w) and c2f the
    second tangent Chern class.  The combination
    24[det Rf_*(w^m)] + 24(2m-1)[det Rf_*(O)] is computed as
    RHS(w^m) + (2m-1) RHS(O) with RHS the degree-3 relative combined class
    pushed forward.  The only weight-3 monomials in w and c2f are w^3 and
    w*c2f, so their coefficients are f_*(w^3) and f_*(w*c2f), and no term is
    dropped.  The w*c2f coefficient must cancel; the w^3 one is reported
    against the tangent-difference orientation of the generator,
    G := f_*(c1([T_X]-[f^*T_S])^3) = -f_*(c1(omega)^3), which is the
    orientation matching the displayed exponent m(6m-4m^2-2).
    """
    fiber = Alphabet([("w", 1), ("c2f", 2)])
    w = GradedPolynomial.variable(fiber, 3, "w")
    tangent_chern = {1: -w, 2: GradedPolynomial.variable(fiber, 3, "c2f")}
    rhs_twisted = _fiber_ct(3, tangent_chern, w.scale(m))
    rhs_trivial = _fiber_ct(3, tangent_chern, 0)
    combo = rhs_twisted + rhs_trivial.scale(2 * m - 1)
    c_wc2 = combo.coefficient(w=1, c2f=1)
    c_w3 = combo.coefficient(w=3)
    exponent_tangent = -c_w3  # generator G = -f_*(w^3)
    expected = m * (6 * m - 4 * m * m - 2)
    lhs_text = f"s_wc2 {c_wc2}\nexponent {exponent_tangent}"
    rhs_text = f"s_wc2 0\nexponent {expected}"
    return VerificationReport.compare(
        "surface-determinant-exponent",
        f"m={m}",
        lhs_text,
        rhs_text,
        notes=(
            "exponent against G = f_*(c1([T_X]-[f^*T_S])^3); against "
            f"f_*(c1(omega)^3) it is {c_w3}"
        ),
    )


# ---------------------------------------------------------------------------
# consistency helpers used by the suites and tests
# ---------------------------------------------------------------------------


def chow_degree(alpha: ChowClass) -> int | Fraction:
    """Pushforward of a class on the full tower to the point."""
    collapsed = pushforward_chow(alpha, alpha.tower.n_levels)
    return collapsed.terms.get(0, 0)  # key 0: the point class


def euler_characteristic_via_chow(
    source: Tower | VirtualCompleteIntersection, F: KClass
) -> Fraction:
    """deg of the source's top combined class of F over the top Todd
    denominator; equals the Euler characteristic of F on the source, the K
    side's chi(koszul_class(F)), when the theory holds."""
    f = MorphismDatum(source, 0)
    if F.tower is not f.ambient:
        raise AssertionError("class does not live on the given tower")
    dim = f.source.dim
    top = _pushed_ct(f, _sheaf_images(F, dim), dim, f.source.tangent_class())
    return Fraction(chow_degree(top), todd_denominator(dim).value)

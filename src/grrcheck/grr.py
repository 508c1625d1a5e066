"""Two-sided Riemann-Roch checks on model geometries and formal fibrations.

Every checker assembles both sides of one exact identity in the integer Chow
ring of a tower (or in a free symbol ring for formal fibrations), serializes
them canonically, and reports byte-equality.  All scalar ratios of Todd
denominators are performed as checked exact integer divisions; a failed
division is a falsification, not a rounding issue.

Every universal polynomial is evaluated by the one substitution loop over its
monomials, grrcheck.poly.substitute_terms: on a tower with Chow classes as
images and the tower's unit class as one, in a formal fibration through
GradedPolynomial.substitute.  The combined class with the tangent Chern
classes substituted is cached per (tower, tangent, degree, active mutation),
so suite runs stay fast and a mutated class never meets a clean one (see
grrcheck.series.set_mutation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping

from .arith import InputError, bernoulli, exact_ratio, todd_denominator
from .geometry import (
    ChowClass,
    KClass,
    Tower,
    VirtualCompleteIntersection,
    pullback_k,
    pushforward_chow,
    pushforward_k,
)
from .poly import Alphabet, GradedPolynomial, substitute_terms
from .report import FalsificationError, VerificationReport
from .series import (
    current_mutation,
    q_poly,
    todd_inverse_numerator,
    universal_chern_character,
    universal_ct,
    universal_todd,
)


# ---------------------------------------------------------------------------
# evaluation of universal polynomials in the Chow ring of a tower
# ---------------------------------------------------------------------------


def _chern_images(f: KClass, upto: int, prefix: str = "c") -> dict[str, ChowClass]:
    """{prefix1: c_1(f), ..., prefix<upto>: c_upto(f)}."""
    total = f.total_chern()
    return {f"{prefix}{i}": total.graded_part(i) for i in range(1, upto + 1)}


def _sheaf_images(F: KClass, upto: int) -> dict[str, ChowClass | int]:
    """The sheaf-side variables r, cp1..cp<upto> at F."""
    return {"r": F.rank(), **_chern_images(F, upto, "cp")}


def evaluate_universal(
    poly: GradedPolynomial,
    tower: Tower,
    images: Mapping[str, ChowClass | int | Fraction],
) -> ChowClass:
    """Evaluate a universal polynomial at tower classes and scalars, one image
    per variable name (e.g. {"r": rank, "cp1": c_1(F), ...}).  Exact."""
    grouped = substitute_terms(poly.terms, poly.alphabet.names(), images, tower.unit_chow())
    return grouped.get((), tower.zero_chow())


def ct_on_tower(tower: Tower, tangent: KClass, sheaf: Mapping, m: int) -> ChowClass:
    """The degree-m combined-class numerator on the tower, at the tangent
    class and the sheaf map {"r": rank, "cp1": ..., "cp<m>": ...}.

    The tangent Chern classes are substituted once per (tangent, degree,
    mutation) and cached on the tower, grouped by the exponents of the
    still-symbolic sheaf variables; each call substitutes only those.
    """
    sheaf_names = ["r"] + [f"cp{i}" for i in range(1, m + 1)]
    key = ("ct-partial", frozenset(tangent.line_terms.items()), m, current_mutation())
    if key not in tower._cache:
        numerator = universal_ct(m).numerator
        tower._cache[key] = substitute_terms(
            numerator.terms,
            numerator.alphabet.names(),
            _chern_images(tangent, m),
            tower.unit_chow(),
            keep=sheaf_names,
        )
    grouped = substitute_terms(tower._cache[key], sheaf_names, sheaf, tower.unit_chow())
    return grouped.get((), tower.zero_chow())


# ---------------------------------------------------------------------------
# morphism data and the error functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphismDatum:
    """A structure morphism from a tower (or a cut-out locus in one) to a
    lower level of the same tower (possibly the point)."""

    source: Tower | VirtualCompleteIntersection
    base_levels: int
    label: str = ""

    @property
    def ambient(self) -> Tower:
        return self.source if isinstance(self.source, Tower) else self.source.ambient

    @property
    def target(self) -> Tower:
        return self.ambient.prefix(self.base_levels)

    @property
    def relative_dimension(self) -> int:
        return self.source.dim - self.target.dim

    def describe(self) -> str:
        return self.label or repr(self.source)


def _source_relative_tangent(f: MorphismDatum) -> KClass:
    """The fiberwise tangent difference T_X - f^*T_S of the source."""
    return f.source.tangent_class() - pullback_k(f.target.tangent_class(), f.ambient)


def _source_ct(f: MorphismDatum, F: KClass, m: int, relative: bool) -> ChowClass:
    """ct_m(F, source) pushed into the ambient ring (times the cut product for
    a cut-out source), using the absolute or fiberwise tangent."""
    tangent = _source_relative_tangent(f) if relative else f.source.tangent_class()
    value = ct_on_tower(f.ambient, tangent, _sheaf_images(F, m), m)
    if isinstance(f.source, VirtualCompleteIntersection):
        value = value * f.source.cut_product()
    return value


def _k_pushforward(f: MorphismDatum, F: KClass) -> KClass:
    ambient_class = (
        F if isinstance(f.source, Tower) else f.source.koszul_class(F)
    )
    return pushforward_k(ambient_class, f.ambient.n_levels - f.base_levels)


def _chow_pushforward(f: MorphismDatum, alpha: ChowClass) -> ChowClass:
    return pushforward_chow(alpha, f.ambient.n_levels - f.base_levels)


def grr_error(f: MorphismDatum, F: KClass, n: int) -> tuple[ChowClass, ChowClass]:
    """Both sides of the integral Riemann-Roch identity in codimension n of
    the target; the error is lhs - rhs and the theorem asserts it vanishes.

    d >= 0: (T_{d+n}/T_n) ct_n(f_*[F], S)  vs  f_*(ct_{d+n}(F, X))
    d <  0:            ct_n(f_*[F], S)     vs  (T_n/T_{n+d}) f_*(ct_{n+d}(F, X))
    """
    if n < 0:
        raise InputError("codimension must be >= 0")
    d = f.relative_dimension
    target = f.target
    pushed = _k_pushforward(f, F)
    lhs = ct_on_tower(target, target.tangent_class(), _sheaf_images(pushed, n), n)
    if d >= 0:
        scalar = exact_ratio(
            todd_denominator(d + n).value, todd_denominator(n).value
        )
        lhs = lhs.scale(scalar)
        rhs = _chow_pushforward(f, _source_ct(f, F, d + n, relative=False))
    else:
        if n + d < 0:
            rhs = target.zero_chow()
        else:
            scalar = exact_ratio(
                todd_denominator(n).value, todd_denominator(n + d).value
            )
            rhs = _chow_pushforward(f, _source_ct(f, F, n + d, relative=False)).scale(
                scalar
            )
    return lhs, rhs


def corollary_sides(f: MorphismDatum, F: KClass, n: int) -> tuple[ChowClass, ChowClass]:
    """(T_{d+n}/n!) s_n(f_*[F])  vs  f_*(ct_{d+n}(F, X/S)) with the fiberwise
    tangent difference (relative-dimension >= 0 form)."""
    d = f.relative_dimension
    if d < 0:
        raise InputError("the corollary form needs relative dimension >= 0")
    target = f.target
    pushed = _k_pushforward(f, F)
    scalar = exact_ratio(todd_denominator(d + n).value, factorial(n))
    s_n = universal_chern_character(n)
    lhs = evaluate_universal(s_n.numerator, target, _sheaf_images(pushed, n)).scale(
        scalar
    )
    rhs = _chow_pushforward(f, _source_ct(f, F, d + n, relative=True))
    return lhs, rhs


def decomposition_sides(
    f: MorphismDatum, F: KClass, n: int
) -> tuple[ChowClass, ChowClass]:
    """Target-side regrouping that links the two statement shapes:
    (T_{d+n}/T_n) ct_n(f_*F, S) = sum_j [T_{d+n}/(T_{d+n-j} T_j)] *
    [(T_{d+n-j}/(n-j)!) s_{n-j}(f_*F)] * Td-numerator_j(T_S)."""
    d = f.relative_dimension
    target = f.target
    pushed = _k_pushforward(f, F)
    pushed_images = _sheaf_images(pushed, n)
    t_tangent = target.tangent_class()
    lhs = ct_on_tower(target, t_tangent, pushed_images, n).scale(
        exact_ratio(todd_denominator(d + n).value, todd_denominator(n).value)
    )
    tangent_chern = _chern_images(t_tangent, n)
    rhs = target.zero_chow()
    for j in range(n + 1):
        outer = exact_ratio(
            todd_denominator(d + n).value,
            todd_denominator(d + n - j).value * todd_denominator(j).value,
        )
        inner = exact_ratio(todd_denominator(d + n - j).value, factorial(n - j))
        s_part = evaluate_universal(
            universal_chern_character(n - j).numerator, target, pushed_images
        )
        td_part = evaluate_universal(
            universal_todd(j).numerator, target, tangent_chern
        )
        rhs = rhs + (s_part * td_part).scale(outer * inner)
    return lhs, rhs


def check_main_theorem(
    f: MorphismDatum, F: KClass, n: int, sheaf_label: str = ""
) -> list[VerificationReport]:
    """The main identity, the numerator-corollary form (when applicable), and
    the scalar regrouping that connects them, on one geometry instance."""
    instance = f"{f.describe()}/sheaf={sheaf_label or F.line_terms}/n={n}"
    reports = []
    lhs, rhs = grr_error(f, F, n)
    reports.append(
        VerificationReport.compare(
            "main-theorem", instance, lhs.serialize(), rhs.serialize()
        )
    )
    if f.relative_dimension >= 0:
        cl, cr = corollary_sides(f, F, n)
        reports.append(
            VerificationReport.compare(
                "main-theorem-corollary", instance, cl.serialize(), cr.serialize()
            )
        )
        dl, dr = decomposition_sides(f, F, n)
        reports.append(
            VerificationReport.compare(
                "main-theorem-decomposition", instance, dl.serialize(), dr.serialize()
            )
        )
    return reports


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------


def check_immersion(
    w: Tower, z: VirtualCompleteIntersection, F: KClass, n: int, label: str = ""
) -> list[VerificationReport]:
    """Codimension-shift identity for a cut-out locus, plus the vanishing and
    decomposition of the character numerator of the pushed-forward class."""
    if z.ambient is not w:
        raise InputError("locus does not live in the given tower")
    r = z.codim
    instance = f"{label or repr(w)}/cuts={z.cuts}/F={F.line_terms}/n={n}"
    reports = []

    koszul = z.koszul_class(F)
    rhs = ct_on_tower(w, w.tangent_class(), _sheaf_images(koszul, n), n)
    if n >= r:
        scalar = exact_ratio(
            todd_denominator(n).value, todd_denominator(n - r).value
        )
        lhs = ct_on_tower(w, z.tangent_class(), _sheaf_images(F, n - r), n - r)
        lhs = (lhs * z.cut_product()).scale(scalar)
    else:
        lhs = w.zero_chow()
    reports.append(
        VerificationReport.compare(
            "immersion-shift",
            instance,
            lhs.serialize(),
            rhs.serialize(),
            notes="below the codimension both sides vanish" if n < r else None,
        )
    )

    # character-numerator pushforward: vanishing below codim, explicit sum above
    normal = z.normal_class()
    normal_chern = _chern_images(normal, max(n - r, 0))
    f_images = _sheaf_images(F, n)
    for m in range(0, n + 1):
        lhs_m = evaluate_universal(
            universal_chern_character(m).numerator, w, _sheaf_images(koszul, m)
        )
        rhs_m = w.zero_chow()  # the sum is empty below the codimension
        for l in range(r, m + 1):
            s_part = evaluate_universal(
                universal_chern_character(m - l).numerator, w, f_images
            )
            inv = todd_inverse_numerator(l, r).numerator
            inv_part = evaluate_universal(inv, w, normal_chern)
            rhs_m = rhs_m + (s_part * inv_part).scale(comb(m, l))
        rhs_m = rhs_m * z.cut_product()
        reports.append(
            VerificationReport.compare(
                "immersion-character-pushforward",
                f"{instance}/degree={m}",
                lhs_m.serialize(),
                rhs_m.serialize(),
                notes="vanishing below the codimension" if m < r else None,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# divisor calculus
# ---------------------------------------------------------------------------


def _divisor_td(w: Tower, m: int, divisor: ChowClass) -> ChowClass:
    """Q_m evaluated at the tangent Chern classes of the tower and the divisor."""
    if m < 1:
        raise InputError("divisor polynomial starts in degree 1")
    images = {**_chern_images(w.tangent_class(), m - 1), "x": divisor}
    return evaluate_universal(q_poly(m).numerator, w, images)


def _restricted_td(w: Tower, cuts: tuple, m: int) -> ChowClass:
    """Pushforward of the degree-m Todd numerator of the cut-out locus:
    Td-numerator_m(virtual tangent) times the product of the cuts."""
    z = VirtualCompleteIntersection(w, cuts)
    if m < 0:
        return w.zero_chow()
    chern = _chern_images(z.tangent_class(), m)
    value = evaluate_universal(universal_todd(m).numerator, w, chern)
    return value * z.cut_product()


def check_divisor_calculus(
    w: Tower, a: int, b: int, m: int, label: str = ""
) -> list[VerificationReport]:
    """Divisor calculus on a tower with multiples a*h and b*h of the first
    hyperplane: single-divisor restriction, the two-divisor decomposition,
    the difference decomposition with its cutoff, the combined-class linkage,
    and the matching additivity-defect bookkeeping on both sides."""
    h = w.hyperplane(1)
    name = label or repr(w)
    reports = []
    delta = w.dim - 1

    def line(c: int) -> KClass:
        vec = (c,) + (0,) * (w.n_levels - 1)
        return w.line(vec)

    def cut(c: int) -> tuple:
        return ((c,) + (0,) * (w.n_levels - 1),)

    da, db = h.scale(a), h.scale(b)
    # (a): restriction form for a single divisor class
    lhs = _divisor_td(w, m, da)
    rhs = _restricted_td(w, cut(a), m - 1)
    reports.append(
        VerificationReport.compare(
            "divisor-restriction", f"{name}/D={a}h/m={m}", lhs.serialize(), rhs.serialize()
        )
    )

    # combined-class linkage for the same divisor
    scalar = exact_ratio(todd_denominator(m).value, todd_denominator(m - 1).value)
    virt = w.structure_sheaf() - line(-a)
    linked = ct_on_tower(w, w.tangent_class(), _sheaf_images(virt, m), m)
    reports.append(
        VerificationReport.compare(
            "divisor-ct-linkage",
            f"{name}/D={a}h/m={m}",
            _divisor_td(w, m, da).scale(scalar).serialize(),
            linked.serialize(),
        )
    )

    # (b): sum of two divisors
    lhs_sum = _divisor_td(w, m, da + db)
    rhs_sum = _restricted_td(w, cut(a), m - 1) + _restricted_td(w, cut(b), m - 1)
    if m >= 2:
        scalar2 = exact_ratio(
            todd_denominator(m - 1).value, todd_denominator(m - 2).value
        )
        rhs_sum = rhs_sum - _restricted_td(w, cut(a) + cut(b), m - 2).scale(scalar2)
    reports.append(
        VerificationReport.compare(
            "divisor-two-term",
            f"{name}/D1={a}h/D2={b}h/m={m}",
            lhs_sum.serialize(),
            rhs_sum.serialize(),
        )
    )

    # (c): difference of two divisors, with the cutoff min(m-1, delta)
    lhs_diff = _divisor_td(w, m, da - db)
    rhs_diff = _restricted_td(w, cut(a), m - 1) - _restricted_td(w, cut(b), m - 1)
    kmax = min(m - 1, delta)
    for k in range(1, kmax + 1):
        sc = exact_ratio(
            todd_denominator(m - 1).value, todd_denominator(m - 1 - k).value
        )
        with_x = _restricted_td(w, cut(b) * k + cut(a), m - 1 - k)
        with_y = _restricted_td(w, cut(b) * k + cut(b), m - 1 - k)
        rhs_diff = rhs_diff + (with_x - with_y).scale(sc)
    reports.append(
        VerificationReport.compare(
            "divisor-difference",
            f"{name}/D={a}h-{b}h/m={m}",
            lhs_diff.serialize(),
            rhs_diff.serialize(),
            notes=f"correction sum cut at min(m-1, {delta}); higher terms vanish "
            "by degree on the left, geometrically on the right",
        )
    )

    # K-side decompositions
    koszul_a = VirtualCompleteIntersection(w, cut(a)).koszul_class()
    koszul_b = VirtualCompleteIntersection(w, cut(b)).koszul_class()
    koszul_ab = VirtualCompleteIntersection(w, cut(a) + cut(b)).koszul_class()
    lhs_k = w.structure_sheaf() - line(-(a + b))
    rhs_k = koszul_a + koszul_b - koszul_ab
    reports.append(
        VerificationReport.compare(
            "divisor-k-two-term",
            f"{name}/D1={a}h/D2={b}h",
            lhs_k.serialize(),
            rhs_k.serialize(),
        )
    )

    lhs_kd = w.structure_sheaf() - line(b - a)
    rhs_kd = koszul_a - koszul_b
    for k in range(1, delta + 1):
        with_x = VirtualCompleteIntersection(w, cut(b) * k + cut(a)).koszul_class()
        with_y = VirtualCompleteIntersection(w, cut(b) * k + cut(b)).koszul_class()
        rhs_kd = rhs_kd + with_x - with_y
    reports.append(
        VerificationReport.compare(
            "divisor-k-difference",
            f"{name}/D={a}h-{b}h",
            lhs_kd.serialize(),
            rhs_kd.serialize(),
        )
    )

    # additivity defect bookkeeping: the same codimension-2 coefficient (-1)
    # appears on the cycle side and the K side
    defect_chow = (
        _divisor_td(w, m, da + db) - _divisor_td(w, m, da) - _divisor_td(w, m, db)
    )
    expected_chow = w.zero_chow()
    if m >= 2:
        sc = exact_ratio(todd_denominator(m - 1).value, todd_denominator(m - 2).value)
        expected_chow = _restricted_td(w, cut(a) + cut(b), m - 2).scale(-sc)
    reports.append(
        VerificationReport.compare(
            "divisor-defect-cycles",
            f"{name}/D={a}h/D'={b}h/m={m}",
            defect_chow.serialize(),
            expected_chow.serialize(),
            notes="codimension-2 defect coefficient -1",
        )
    )
    defect_k = (
        (w.structure_sheaf() - line(-(a + b)))
        - (w.structure_sheaf() - line(-a))
        - (w.structure_sheaf() - line(-b))
    )
    reports.append(
        VerificationReport.compare(
            "divisor-defect-k",
            f"{name}/D={a}h/D'={b}h",
            defect_k.serialize(),
            koszul_ab.scale(-1).serialize(),
            notes="matches the cycle-side defect coefficient -1 in codimension 2",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# formal fibrations: symbolic relative curves and surfaces
# ---------------------------------------------------------------------------


class FormalFibration:
    """A relative curve or surface with symbolic fiber classes and a formal
    pushforward table; pushforward kills relative degree < d and maps each
    higher monomial to a free symbol (no relations are imposed on symbols)."""

    def __init__(
        self,
        d: int,
        fiber: Alphabet,
        tangent_chern: dict[int, GradedPolynomial],
        symbols: Alphabet,
        table: dict[tuple[int, ...], str],
        truncation: int,
    ):
        self.d = d
        self.fiber = fiber
        self.tangent_chern = tangent_chern
        self.symbols = symbols
        self.table = table
        self.truncation = truncation

    @staticmethod
    def relative_curve(truncation: int) -> "FormalFibration":
        """d = 1; the fiber variable K is the first Chern class of the relative
        cotangent sheaf, so the relative tangent has c1 = -K.  Pushforward
        maps K^(i+1) to the tautological symbol kappa<i>."""
        fiber = Alphabet([("K", 1)])
        symbols = Alphabet([(f"kappa{i}", i) for i in range(0, truncation)])
        minus_k = GradedPolynomial.variable(fiber, truncation, "K").scale(-1)
        table = {(i + 1,): f"kappa{i}" for i in range(0, truncation)}
        return FormalFibration(1, fiber, {1: minus_k}, symbols, table, truncation)

    @staticmethod
    def relative_surface(truncation: int = 3) -> "FormalFibration":
        """d = 2; w is the first Chern class of the relative dualizing sheaf
        (tangent c1 = -w) and c2 the second tangent Chern class.  The degree-3
        pushforwards get the symbols s_w3 = f_*(w^3) and s_wc2 = f_*(w*c2)."""
        fiber = Alphabet([("w", 1), ("c2f", 2)])
        symbols = Alphabet([("s_w3", 1), ("s_wc2", 1)])
        w = GradedPolynomial.variable(fiber, truncation, "w")
        c2f = GradedPolynomial.variable(fiber, truncation, "c2f")
        table = {(3, 0): "s_w3", (1, 1): "s_wc2"}
        return FormalFibration(2, fiber, {1: -w, 2: c2f}, symbols, table, truncation)

    def ct_relative(self, m: int, sheaf_c1: GradedPolynomial | None) -> GradedPolynomial:
        """The degree-m combined-class numerator of a line bundle with first
        Chern class sheaf_c1 (None for the structure sheaf), evaluated at the
        relative tangent data."""
        uc = universal_ct(m)
        images: dict[str, GradedPolynomial | Fraction] = {"r": Fraction(1)}
        for i in range(1, m + 1):
            images[f"c{i}"] = self.tangent_chern.get(
                i, GradedPolynomial.zero(self.fiber, self.truncation)
            )
            images[f"cp{i}"] = Fraction(0)
        if sheaf_c1 is not None:
            images["cp1"] = sheaf_c1
        return uc.numerator.substitute(images, self.fiber, truncation=self.truncation)

    def pushforward(self, p: GradedPolynomial) -> GradedPolynomial:
        out = GradedPolynomial.zero(self.symbols, self.truncation)
        for mono, coeff in p.terms.items():
            degree = p.degree_of(mono)
            if degree < self.d:
                continue
            name = self.table.get(mono)
            if name is None:
                raise InputError(
                    f"no pushforward symbol registered for fiber monomial {mono}"
                )
            out = out + GradedPolynomial.variable(
                self.symbols, self.truncation, name
            ).scale(coeff)
        return out


def kappa_expected(n: int) -> tuple[Fraction, str]:
    """The displayed right side for the relative-curve identity in degree n:
    0 for even n >= 2, and the integer T_{n+1} B_{n+1} / (n+1)! times the
    tautological class for odd n."""
    if n < 1:
        raise InputError("degree must be >= 1")
    if n >= 2 and n % 2 == 0:
        return Fraction(0), ""
    coeff = (
        Fraction(todd_denominator(n + 1).value)
        * bernoulli(n + 1)
        / factorial(n + 1)
    )
    return coeff, f"kappa{n}"


def check_kappa_identity(n: int) -> VerificationReport:
    """Pushforward of the combined class of the structure sheaf on a formal
    relative curve, against the displayed tautological-class multiple."""
    fib = FormalFibration.relative_curve(n + 2)
    value = fib.pushforward(fib.ct_relative(n + 1, None))
    coeff, symbol = kappa_expected(n)
    if symbol:
        if coeff.denominator != 1:
            raise FalsificationError(
                f"tautological coefficient {coeff} is not an integer",
                identity="kappa-multiple",
                instance=f"n={n}",
            )
        expected = GradedPolynomial.variable(fib.symbols, fib.truncation, symbol).scale(
            coeff
        )
    else:
        expected = GradedPolynomial.zero(fib.symbols, fib.truncation)
    notes = (
        "left side equals (T_{n+1}/n!) s_n of the pushed structure sheaf; the "
        "dualizing-side convention matched is s_n(f_*[O]) = (-1)^(n-1) s_n(Hodge)"
    )
    if n == 1:
        notes = "degree 1 instance: twelve times the Hodge class equals kappa1; " + notes
    return VerificationReport.compare(
        "kappa-multiple",
        f"n={n}",
        value.serialize(),
        expected.serialize(),
        notes=notes,
    )


def check_surface_det_identity(m: int) -> VerificationReport:
    """Exponent of the intersection-bundle generator in the 24th-power
    determinant identity for a formal relative surface, at power m.

    The combination 24[det Rf_*(w^m)] + 24(2m-1)[det Rf_*(O)] is computed as
    RHS(w^m) + (2m-1) RHS(O) with RHS the degree-3 relative combined class
    pushed forward.  The w*c2 symbol must cancel; the remaining coefficient is
    reported against the tangent-difference orientation of the generator,
    G := f_*(c1([T_X]-[f^*T_S])^3) = -f_*(c1(omega)^3), which is the
    orientation matching the displayed exponent m(6m-4m^2-2).
    """
    fib = FormalFibration.relative_surface()
    w = GradedPolynomial.variable(fib.fiber, fib.truncation, "w")
    rhs_twisted = fib.pushforward(fib.ct_relative(3, w.scale(m)))
    rhs_trivial = fib.pushforward(fib.ct_relative(3, None))
    combo = rhs_twisted + rhs_trivial.scale(2 * m - 1)
    c_wc2 = combo.coefficient(s_wc2=1)
    c_w3 = combo.coefficient(s_w3=1)
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


def chow_degree(alpha: ChowClass) -> Fraction:
    """Pushforward of a class on the full tower to the point."""
    collapsed = pushforward_chow(alpha, alpha.tower.n_levels)
    return collapsed.terms.get((), Fraction(0))


def euler_characteristic_via_chow(tower: Tower, F: KClass) -> Fraction:
    """deg of the top combined class divided by the top Todd denominator;
    equals the K-theoretic Euler characteristic when the theory holds."""
    if F.tower is not tower:
        raise InputError("class does not live on the given tower")
    top = ct_on_tower(
        tower, tower.tangent_class(), _sheaf_images(F, tower.dim), tower.dim
    )
    return chow_degree(top) / todd_denominator(tower.dim).value


def rational_grr_cross_check(f: MorphismDatum, F: KClass, n: int) -> bool:
    """Classical rational Riemann-Roch computed independently with Fractions:
    ch_n(f_*[F]) = f_*((ch(F) td(T_X) td(f^* T_S)^{-1})_{d+n}).

    This is the torsion-free shadow of the integral statement; agreement here
    plus agreement of the integral sides pins both computations.
    """
    d = f.relative_dimension
    if d < 0:
        raise InputError("rational cross-check implemented for d >= 0")
    if isinstance(f.source, VirtualCompleteIntersection):
        raise InputError("rational cross-check implemented for tower sources")
    target = f.target
    pushed = _k_pushforward(f, F)
    lhs = evaluate_universal(
        universal_chern_character(n).series_part, target, _sheaf_images(pushed, n)
    )
    ambient = f.ambient
    rel_tangent = _source_relative_tangent(f)
    td_rel_chern = _chern_images(rel_tangent, d + n)
    total = ambient.zero_chow()
    for j in range(d + n + 1):
        ch_j = evaluate_universal(
            universal_chern_character(j).series_part, ambient, _sheaf_images(F, j)
        )
        td_j = evaluate_universal(
            universal_todd(d + n - j).series_part, ambient, td_rel_chern
        )
        total = total + ch_j * td_j
    total = total.graded_part(d + n)
    rhs = _chow_pushforward(f, total)
    return lhs == rhs

"""Named verification suites: deterministic lists of VerificationReports.

The registered model geometries are the towers of dimension <= 4 over bases
of dimension <= 2 on which the main identity is exercised for every line
bundle with divisor coefficients in [-2, 2] and every meaningful codimension
n <= 3 (codimensions beyond dim(base)+1 carry no content on these bases and
are skipped; the first vacuous one is kept as a vanishing check).  Each
is written in the CLI's geometry language, and every tower a suite uses is
built from such text by geometry_tower, one cache keyed by the text: a
catalogue report reruns as one `verify main-theorem --geometry` query.

Suites never raise on a falsified identity: every check runs through
report.run_check with the check function and its arguments, which turns a
fatal falsification inside the engine into one failed report, so the caller
always receives the full stream and the exit-code contract stays simple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .arith import (
    bernoulli_akiyama_tanigawa,
    check_divisibility_lemma,
    check_ekedahl_divisibility,
    fulton_macpherson_L,
    todd_ratio,
    von_staudt_D,
)
from .geometry import (
    Tower,
    VirtualCompleteIntersection,
    chi_projective_space_oracle,
    euler_characteristic,
    pushforward_k,
)
from .grr import (
    MorphismDatum,
    check_divisor_calculus,
    check_immersion,
    check_kappa_identity,
    check_main_theorem,
    check_surface_det_identity,
    euler_characteristic_via_chow,
    kappa_expected,
)
from .identities import IDENTITY_CHECKS, howe_claims, verify_series_identity
from .report import VerificationReport, run_check
from .series import UNIVERSAL_CLASSES
from .specparse import build_geometry, parse_geometry


# ---------------------------------------------------------------------------
# registered geometries
# ---------------------------------------------------------------------------

# (name, geometry text, base level counts); bases are prefixes of the level
# list, and the text is what `verify main-theorem --geometry` reads
MODEL_TOWERS: list[tuple[str, str, list[int]]] = [
    ("P1", "P(trivial 2) over point", [0]),
    ("P2", "P(trivial 3) over point", [0]),
    ("P3", "P(trivial 4) over point", [0]),
    ("P4", "P(trivial 5) over point", [0]),
    ("P1xP1", "P(trivial 2) over P(trivial 2) over point", [0, 1]),
    ("P1;P2", "P(trivial 3) over P(trivial 2) over point", [0, 1]),
    ("P2;P1", "P(trivial 2) over P(trivial 3) over point", [0, 1]),
    ("P2;P2", "P(trivial 3) over P(trivial 3) over point", [0, 1]),
    ("P1;P3", "P(trivial 4) over P(trivial 2) over point", [0, 1]),
    ("P3;P1", "P(trivial 2) over P(trivial 4) over point", [0, 1]),
    ("F1", "P([0, xi1]) over P(trivial 2) over point", [0, 1]),
    ("F2", "P([0, 2*xi1]) over P(trivial 2) over point", [0, 1]),
    ("P2;P(O+O(h))", "P([0, xi1]) over P(trivial 3) over point", [0, 1]),
    ("P2;P(O+O(h)+O(2h))", "P([0, xi1, 2*xi1]) over P(trivial 3) over point", [0, 1]),
    ("P1;P1;P1", "P(trivial 2) over P(trivial 2) over P(trivial 2) over point", [0, 1, 2]),
    ("P1;F;twist", "P([xi2, 0]) over P([0, xi1]) over P(trivial 2) over point", [0, 1, 2]),
    ("P1^4", "P(trivial 2) over P(trivial 2) over P(trivial 2) over P(trivial 2) over point",
     [0, 1, 2]),
]


@cache
def geometry_tower(text: str) -> Tower:
    """The tower that geometry text names, built once per text."""
    return build_geometry(parse_geometry(text)).tower


def model_tower(name: str) -> Tower:
    return geometry_tower({n: text for n, text, _ in MODEL_TOWERS}[name])


def _sheaf_vectors(n_levels: int, bound: int = 2):
    return product(*(range(-bound, bound + 1) for _ in range(n_levels)))


# ---------------------------------------------------------------------------
# checks: module-level functions, each run by run_check with its arguments
# ---------------------------------------------------------------------------


def _class_integrality(kind: str, instance: str, args: tuple) -> list[VerificationReport]:
    """An integer numerator for one generated class, and agreement of its two
    generation routes."""
    builder, oracle = UNIVERSAL_CLASSES[kind]
    uc = builder(*args)
    rep_int = VerificationReport.compare(
        f"integrality:{kind}",
        instance,
        "integral" if uc.numerator.is_integral() else "non-integral",
        "integral",
    )
    rep_agree = VerificationReport.compare(
        f"route-agreement:{kind}",
        instance,
        uc.numerator.serialize(),
        oracle(*args).serialize(),
    )
    return [rep_int, rep_agree]


def _scalar_ratios(max_degree: int) -> VerificationReport:
    """Exactness of every Todd-denominator ratio through max_degree."""
    bad: list[str] = []
    # j! T_{m-j} | T_m and T_{m-j} | T_m by the divisibility lemma, the
    # factor j! as the part j - 1; every ratio at m = 0 is T_0/T_0 = 1
    for m in range(1, max_degree + 1):
        for j in range(0, m + 1):
            todd_part = [m - j] * (m > j)
            if not check_divisibility_lemma([j - 1] * (j > 1), todd_part, m)[0]:
                bad.append(f"T_{m}/({j}!*T_{m - j})")
            if not check_divisibility_lemma([], todd_part, m)[0]:
                bad.append(f"T_{m}/T_{m - j}")
    return VerificationReport.compare(
        "integrality:scalars",
        f"all ratios through degree {max_degree}",
        "; ".join(bad) if bad else "all integral",
        "all integral",
    )


def _pushes_to(identity: str, instance: str, line, expected: str) -> VerificationReport:
    """Push one line bundle down one level and compare with expected."""
    return VerificationReport.compare(
        identity, instance, pushforward_k(line, 1).serialize(), expected
    )


def _euler_binomial(tower: Tower, coeffs: tuple, instance: str) -> VerificationReport:
    """The Euler characteristic of a line bundle on a product tower against
    the binomial-product oracle."""
    chi = euler_characteristic(tower.line(coeffs))
    expected = 1
    for dim_f, a in zip(tower.ranks, coeffs):
        expected *= chi_projective_space_oracle(dim_f, a)
    return VerificationReport.compare(
        "euler-binomial-oracle", instance, str(chi), str(expected)
    )


def _euler_hirzebruch(tower: Tower, F, instance: str) -> VerificationReport:
    """The cycle-side degree of the top combined class against the K-side
    Euler characteristic."""
    return VerificationReport.compare(
        "euler-hirzebruch-consistency",
        instance,
        str(euler_characteristic_via_chow(tower, F)),
        str(Fraction(euler_characteristic(F))),
    )


def _kappa_coefficients(max_n: int) -> list[VerificationReport]:
    """The tautological coefficient T_{2m} B_{2m} / (2m)! of kappa_expected
    is an integer for every odd degree 2m - 1 <= max_n."""
    out = []
    for m in range(2, (max_n + 1) // 2 + 1):
        coeff = kappa_expected(2 * m - 1)[0]
        out.append(
            VerificationReport.compare(
                "kappa-coefficient-integrality",
                f"m={m}",
                "integer" if coeff.denominator == 1 else f"denominator {coeff.denominator}",
                "integer",
            )
        )
    return out


def _von_staudt(g: int) -> tuple[str, str]:
    denominator = (bernoulli_akiyama_tanigawa(2 * g) / (2 * g)).denominator
    return str(von_staudt_D(g).value), str(denominator)


def _hodge_torsion(g: int) -> tuple[str, str]:
    ok, witness = check_ekedahl_divisibility(g)
    if ok:
        return f"quotient {witness}", f"quotient {witness}"
    return f"failed at prime {witness}", "exact division"


def _covering_defect(n: int) -> tuple[str, str]:
    ln = fulton_macpherson_L(n)
    defect = todd_ratio(n, n, 0)
    divisible = defect % ln.value == 0
    radical_ok = all(defect % p == 0 for p, _ in ln.factorization)
    claim = f"L={ln.value} divides defect {defect}"
    return f"{claim}: {divisible and radical_ok}", f"{claim}: True"


def _compare_sides(identity: str, instance: str, sides, i: int) -> VerificationReport:
    """Compare the two sides that sides(i) returns."""
    return VerificationReport.compare(identity, instance, *sides(i))


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def suite_series_identities(max_degree: int = 8) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name in sorted(IDENTITY_CHECKS):
        reports += run_check(
            name, f"max degree {max_degree}", verify_series_identity, name, max_degree
        )
    return reports


def suite_integrality(max_degree: int = 12) -> list[VerificationReport]:
    """Integer coefficients for every generated class family, agreement of the
    two generation routes, and exactness of every Todd-denominator ratio."""
    reports: list[VerificationReport] = []
    top = max(max_degree - 2, 0)
    plans = [
        ("todd", [(m,) for m in range(0, max_degree + 1)]),
        ("ch", [(m,) for m in range(0, max_degree + 1)]),
        ("ct", [(m,) for m in range(0, top + 1)]),
        ("q", [(m,) for m in range(1, top + 1)]),
        ("toddinv", [(m, r) for r in range(1, 5) for m in range(r, max(top, r) + 1)]),
    ]
    for kind, arg_lists in plans:
        for args in arg_lists:
            instance = f"degree {args[0]}" + "".join(f" rank {r}" for r in args[1:])
            reports += run_check(
                f"integrality:{kind}", instance, _class_integrality, kind, instance, args
            )
    reports += run_check("integrality:scalars", "ratios", _scalar_ratios, max_degree)
    return reports


def suite_projective_bundle(max_rank: int = 4) -> list[VerificationReport]:
    """The reduction claims for the bundle series, plus the twist-vanishing
    and structure-sheaf pushforward facts on model bundles."""
    reports: list[VerificationReport] = []
    for r in range(1, max_rank + 1):
        reports += run_check("bundle-series-reduction", f"r={r}", howe_claims, r, r + 4)
    # (identity, instance, line bundle, its pushforward one level down)
    pushes = []
    for r in range(1, max_rank):
        pr = geometry_tower(f"P(trivial {r + 1}) over point")
        for a in range(-r, 0):
            pushes.append(("bundle-twist-vanishing", f"P{r}, twist {a}", pr.line((a,)), ""))
        pushes.append(("bundle-structure-pushforward", f"P{r}", pr.structure_sheaf(), "1/1"))
    twisted = model_tower("F1")
    pushes.append(("bundle-twist-vanishing", "F1, twist -1", twisted.line((0, -1)), ""))
    for identity, instance, line, expected in pushes:
        reports += run_check(identity, instance, _pushes_to, identity, instance, line, expected)
    return reports


def suite_main_theorem(coefficient_bound: int = 2) -> list[VerificationReport]:
    """The main identity (both statement shapes and their regrouping) on every
    registered instance, identity morphisms, the dimension <= 4 base cases,
    and the binomial-product Euler-characteristic cross-check."""
    reports: list[VerificationReport] = []
    for name, text, bases in MODEL_TOWERS:
        tower = geometry_tower(text)
        for base_levels in bases:
            dim_base = tower.prefix(base_levels).dim
            n_values = range(0, min(3, dim_base + 1) + 1)
            f = MorphismDatum(tower, base_levels, f"{name}->prefix{base_levels}")
            for coeffs in _sheaf_vectors(tower.n_levels, coefficient_bound):
                F = tower.line(coeffs)
                label = "O(" + ",".join(map(str, coeffs)) + ")"
                for n in n_values:
                    instance = f"{f.describe()}/sheaf={label}/n={n}"
                    reports += run_check(
                        "main-theorem", instance, check_main_theorem, f, F, n, label
                    )
        # identity morphism: no levels collapsed, the error is zero by shape
        ident = MorphismDatum(tower, tower.n_levels, f"{name}->self")
        probe = tower.line((1,) * tower.n_levels)
        for n in range(0, min(3, tower.dim) + 1):
            reports += run_check(
                "main-theorem", f"{ident.describe()}/n={n}",
                check_main_theorem, ident, probe, n, "O(1,..)",
            )
        # on a product tower, Euler characteristic against the binomial-product oracle
        if not any(any(vec) for level in tower.levels for vec in level):
            for coeffs in _sheaf_vectors(tower.n_levels, coefficient_bound):
                instance = f"{name}/O({','.join(map(str, coeffs))})"
                reports += run_check(
                    "euler-binomial-oracle", instance,
                    _euler_binomial, tower, coeffs, instance,
                )
        # cycle-side degree against the K-side Euler characteristic
        for coeffs in _sheaf_vectors(tower.n_levels, 1):
            instance = f"{name}/O({','.join(map(str, coeffs))})"
            reports += run_check(
                "euler-hirzebruch-consistency", name,
                _euler_hirzebruch, tower, tower.line(coeffs), instance,
            )

    # cut-out loci over a base: composite pushforward instances
    p3p2 = geometry_tower("P(trivial 3) over P(trivial 4) over point")
    for cuts, label, F, sheaf_label in [
        (((1, 0),), "hyperplane-in-P3;P2->P3", p3p2.structure_sheaf(), "O"),
        (((1, 1),), "bidegree-hyperplane-in-P3;P2->P3", p3p2.line((1, 0)), "O(1,0)"),
    ]:
        f = MorphismDatum(VirtualCompleteIntersection(p3p2, cuts), 1, label)
        for n in range(0, 3):
            reports += run_check(
                "main-theorem", f"{label}/n={n}", check_main_theorem, f, F, n, sheaf_label
            )
    return reports


def suite_immersion() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = geometry_tower("P(trivial 4) over point")
    cases = [
        (p3, ((1,),), p3.structure_sheaf(), "P3/hyperplane/O"),
        (p3, ((2,),), p3.structure_sheaf(), "P3/quadric-class/O"),
        (p3, ((1,), (1,)), p3.structure_sheaf(), "P3/line/O"),
        (p3, ((1,), (1,)), p3.line((1,)), "P3/line/O(h)"),
        (p3, ((1,), (2,)), p3.line((1,)), "P3/degree-2-curve/O(h)"),
    ]
    two_level = geometry_tower("P(trivial 3) over P(trivial 2) over point")
    cases += [
        (two_level, ((1, 1),), two_level.structure_sheaf(), "P1;P2/bidegree-divisor/O"),
        (two_level, ((1, 0), (0, 1)), two_level.line((0, 1)), "P1;P2/codim2/O(xi2)"),
    ]
    for w, cuts, F, label in cases:
        z = VirtualCompleteIntersection(w, cuts)
        for n in range(0, 4):
            reports += run_check(
                "immersion-shift", f"{label}/n={n}", check_immersion, w, z, F, n, label
            )
    return reports


def suite_divisor_calculus(max_m: int = 3) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = geometry_tower("P(trivial 4) over point")
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 3)]:
        for m in range(1, max_m + 1):
            reports += run_check(
                "divisor-restriction", f"P3/a={a}/b={b}/m={m}",
                check_divisor_calculus, p3, a, b, m, "P3",
            )
    return reports


def suite_kappa(max_n: int = 9) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for n in range(1, max_n + 1):
        reports += run_check("kappa-multiple", f"n={n}", check_kappa_identity, n)
    reports += run_check("kappa-coefficient-integrality", "range", _kappa_coefficients, max_n)
    return reports


def suite_surface_det(max_m: int = 6) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for m in range(0, max_m + 1):
        reports += run_check(
            "surface-determinant-exponent", f"m={m}", check_surface_det_identity, m
        )
    return reports


def suite_number_theory() -> list[VerificationReport]:
    """The divisibility corollaries: vanishing-order denominators, the
    factorial-multiple divisibility, and the covering-map defect radicals."""
    plans = [
        ("von-staudt-denominator", "g", range(1, 21), _von_staudt),
        ("hodge-torsion-divisibility", "g", range(2, 16), _hodge_torsion),
        ("covering-defect-radical", "n", range(1, 13), _covering_defect),
    ]
    reports: list[VerificationReport] = []
    for identity, index, values, sides in plans:
        for i in values:
            instance = f"{index}={i}"
            reports += run_check(identity, instance, _compare_sides, identity, instance, sides, i)
    return reports


SUITES = {
    "series-identities": suite_series_identities,
    "integrality": suite_integrality,
    "projective-bundle": suite_projective_bundle,
    "immersion": suite_immersion,
    "divisor-calculus": suite_divisor_calculus,
    "kappa": suite_kappa,
    "surface-det": suite_surface_det,
    "main-theorem": suite_main_theorem,
    "number-theory": suite_number_theory,
}


def suite_all() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name in sorted(SUITES):
        reports.extend(SUITES[name]())
    return reports

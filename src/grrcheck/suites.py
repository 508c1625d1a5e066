"""Named verification suites: deterministic lists of VerificationReports.

The main theorem runs over one table, main_theorem_rows, whose rows hold the
text `verify main-theorem` reads, through one function, main_theorem_reports,
which the single-instance CLI query shares.  Each registered tower X
(dim X <= 4) has a row per base prefix S that MODEL_TOWERS lists for it
(dim S <= 3: every proper prefix, except that P1^4 lists only those of
dim <= 2), with every line bundle of divisor coefficients in [-2, 2] and
n <= min(3, dim S + 1) (the first vacuous n kept as a vanishing check), and
a row for its identity morphism; two cut-outs of P3;P2 over P3 close the
table.  The suite reads each geometry text through geometry_scope, and the
CLI reads its query's; either way the tower is geometry.tower's, so rows,
queries and prefixes that name one level list share one tower.

Suites never raise on a falsified identity: every check runs through
report.run_check with the check function and its arguments, which turns a
fatal falsification inside the engine into one failed report, so the caller
always receives the full stream and the exit-code contract stays simple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import groupby, product

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
    tower,
)
from .grr import (
    MorphismDatum,
    check_divisor_calculus,
    check_immersion,
    check_kappa_identity,
    check_main_theorem,
    check_surface_det_identity,
    divisor_instance,
    euler_characteristic_via_chow,
    immersion_instance,
    kappa_expected,
)
from .identities import IDENTITY_CHECKS, IDENTITY_INSTANCES, howe_claims, howe_instance
from .report import VerificationReport, run_check
from .series import UNIVERSAL_CLASSES, integrality_instance
from .specparse import (
    GeometryScope,
    build_geometry,
    evaluate_class,
    parse_class,
    parse_divisor,
    parse_geometry,
)


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
_MODEL_TOWER_TEXT = {name: text for name, text, _ in MODEL_TOWERS}
TWIST_BOUND = 2  # the main-theorem suite's twist vectors have entries in [-2, 2]


@cache
def _resolved_geometry(text: str):
    """The level list and name scope that geometry text resolves to."""
    scope = build_geometry(parse_geometry(text))
    return scope.tower.levels, scope.names


def geometry_scope(text: str) -> GeometryScope:
    """The tower and name scope that geometry text names: the text is read
    once, and the tower is geometry.tower's, the one on its level list."""
    levels, names = _resolved_geometry(text)
    return GeometryScope(tower(levels), names)


def model_tower(name: str) -> Tower:
    """The tower of a named model geometry; the benchmark's workloads call it."""
    return geometry_scope(_MODEL_TOWER_TEXT[name]).tower


def _sheaf_vectors(n_levels: int, bound: int):
    return product(*(range(-bound, bound + 1) for _ in range(n_levels)))


def _twist_label(vec) -> str:
    """The suites' label O(a,b,..) of the line bundle of a twist vector."""
    return "O(" + ",".join(map(str, vec)) + ")"


def _line_text(vec) -> str:
    """The class text O(a*xi1+b*xi2..) of a twist vector's line bundle, or O."""
    divisor = "".join(f"{a:+d}*xi{k}" for k, a in enumerate(vec, 1) if a).lstrip("+")
    return f"O({divisor})" if divisor else "O"


def main_theorem_rows() -> list[tuple]:
    """One row per main-theorem source, in the text `verify main-theorem`
    reads, beside its labels: (label, geometry text, cut texts, base levels,
    sheaves as (label, class text), codimensions); a geometry's rows are adjacent."""
    rows = []
    for name, text, bases in MODEL_TOWERS:
        tower = geometry_scope(text).tower
        vecs = _sheaf_vectors(tower.n_levels, TWIST_BOUND)
        twists = [(_twist_label(vec), _line_text(vec)) for vec in vecs]
        for base in bases:
            n_values = range(0, min(3, tower.prefix(base).dim + 1) + 1)
            rows.append((f"{name}->prefix{base}", text, (), base, twists, n_values))
        # identity morphism: no levels collapsed, the error is zero by shape
        probe = [("O(1,..)", _line_text((1,) * tower.n_levels))]
        n_values = range(0, min(3, tower.dim) + 1)
        rows.append((f"{name}->self", text, (), tower.n_levels, probe, n_values))
    p3p2 = "P(trivial 3) over P(trivial 4) over point"
    return rows + [
        ("hyperplane-in-P3;P2->P3", p3p2, ("xi1",), 1, [("O", "O")], range(0, 3)),
        ("bidegree-hyperplane-in-P3;P2->P3", p3p2, ("xi1+xi2",), 1, [("O(1,0)", "O(xi1)")],
         range(0, 3)),
    ]


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


def _scalar_ratios(max_degree: int, instance: str) -> VerificationReport:
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
        instance,
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


def _euler_hirzebruch(source: VirtualCompleteIntersection, F, instance: str) -> VerificationReport:
    """The cycle-side degree of the source's top combined class of F against
    the K-side Euler characteristic of its Koszul class."""
    return VerificationReport.compare(
        "euler-hirzebruch-consistency",
        instance,
        str(euler_characteristic_via_chow(source, F)),
        str(Fraction(euler_characteristic(source.koszul_class(F)))),
    )


def _kappa_coefficient(m: int) -> VerificationReport:
    """The tautological coefficient T_{2m} B_{2m} / (2m)! of kappa_expected
    at the odd degree 2m - 1 is an integer."""
    coeff = kappa_expected(2 * m - 1)
    return VerificationReport.compare(
        "kappa-coefficient-integrality",
        f"m={m}",
        "integer" if coeff.denominator == 1 else f"denominator {coeff.denominator}",
        "integer",
    )


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
    claim = f"L={ln.value} divides defect {defect}"
    return f"{claim}: {defect % ln.value == 0}", f"{claim}: True"


def _compare_sides(identity: str, instance: str, sides, i: int) -> VerificationReport:
    """Compare the two sides that sides(i) returns."""
    return VerificationReport.compare(identity, instance, *sides(i))


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def run_identity(name: str, max_degree: int = 8) -> list[VerificationReport]:
    """One formal identity through max_degree, under its instance text: a
    step of series-identities, and `verify <identity>` itself."""
    instance = IDENTITY_INSTANCES[name](max_degree)
    return run_check(name, instance, IDENTITY_CHECKS[name], max_degree)


def suite_series_identities(max_degree: int = 8) -> list[VerificationReport]:
    return [rep for name in sorted(IDENTITY_CHECKS) for rep in run_identity(name, max_degree)]


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
            instance = integrality_instance(args)
            reports += run_check(
                f"integrality:{kind}", instance, _class_integrality, kind, instance, args
            )
    instance = f"all ratios through degree {max_degree}"
    reports += run_check("integrality:scalars", instance, _scalar_ratios, max_degree, instance)
    return reports


def suite_projective_bundle() -> list[VerificationReport]:
    """The reduction claims for the bundle series, plus the twist-vanishing
    and structure-sheaf pushforward facts on model bundles."""
    reports: list[VerificationReport] = []
    for r in range(1, 5):
        reports += run_check("bundle-series-reduction", howe_instance(r, -r), howe_claims, r, r + 4)
    # (identity, instance, line bundle, its pushforward one level down)
    pushes = []
    for r in range(1, 4):
        pr = geometry_scope(f"P(trivial {r + 1}) over point").tower
        for a in range(-r, 0):
            pushes.append(("bundle-twist-vanishing", f"P{r}, twist {a}", pr.line((a,)), ""))
        pushes.append(("bundle-structure-pushforward", f"P{r}", pr.structure_sheaf(), "1/1"))
    twisted = model_tower("F1")
    pushes.append(("bundle-twist-vanishing", "F1, twist -1", twisted.line((0, -1)), ""))
    for identity, instance, line, expected in pushes:
        reports += run_check(identity, instance, _pushes_to, identity, instance, line, expected)
    return reports


def main_theorem_reports(scope: GeometryScope, rows) -> list[VerificationReport]:
    """The main identity on rows of main_theorem_rows' shape, all over the
    geometry of scope, for the suite and the CLI query alike: cuts and sheaves
    read from their text on scope, each distinct sheaf text evaluated once,
    before its row's checks, and each (sheaf, n) its own run_check."""
    reports: list[VerificationReport] = []
    built = {}  # sheaf text -> its class on scope's tower
    for label, _, cuts, base_levels, sheaves, n_values in rows:
        cut_vectors = tuple(scope.divisor_vector(parse_divisor(cut)) for cut in cuts)
        f = MorphismDatum(VirtualCompleteIntersection(scope.tower, cut_vectors), base_levels, label)
        for _, text in sheaves:
            if text not in built:
                built[text] = evaluate_class(parse_class(text), scope)
        for (sheaf, text), n in product(sheaves, n_values):
            F, instance = built[text], f.instance(sheaf, n)
            reports += run_check("main-theorem", instance, check_main_theorem, f, F, n, sheaf)
    return reports


def suite_main_theorem() -> list[VerificationReport]:
    """The main identity (both statement shapes and their regrouping) on the
    rows of main_theorem_rows, one geometry at a time, then per registered
    tower the binomial-product and the cycle-side Euler-characteristic checks."""
    reports: list[VerificationReport] = []
    for text, rows in groupby(main_theorem_rows(), key=lambda row: row[1]):
        reports += main_theorem_reports(geometry_scope(text), rows)
    for name, text, _ in MODEL_TOWERS:
        tower = geometry_scope(text).tower
        # on a product tower, Euler characteristic against the binomial-product oracle
        if not any(any(vec) for level in tower.levels for vec in level):
            for coeffs in _sheaf_vectors(tower.n_levels, TWIST_BOUND):
                instance = f"{name}/{_twist_label(coeffs)}"
                reports += run_check(
                    "euler-binomial-oracle", instance,
                    _euler_binomial, tower, coeffs, instance,
                )
        # cycle-side degree against the K-side Euler characteristic, on [-1, 1]^k
        for coeffs in _sheaf_vectors(tower.n_levels, 1):
            instance = f"{name}/{_twist_label(coeffs)}"
            reports += run_check(
                "euler-hirzebruch-consistency", instance, _euler_hirzebruch,
                VirtualCompleteIntersection(tower, ()), tower.line(coeffs), instance,
            )
    return reports


def suite_immersion() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = geometry_scope("P(trivial 4) over point").tower
    cases = [
        (p3, ((1,),), p3.structure_sheaf(), "P3/hyperplane/O"),
        (p3, ((2,),), p3.structure_sheaf(), "P3/quadric-class/O"),
        (p3, ((1,), (1,)), p3.structure_sheaf(), "P3/line/O"),
        (p3, ((1,), (1,)), p3.line((1,)), "P3/line/O(h)"),
        (p3, ((1,), (2,)), p3.line((1,)), "P3/degree-2-curve/O(h)"),
    ]
    two_level = geometry_scope("P(trivial 3) over P(trivial 2) over point").tower
    cases += [
        (two_level, ((1, 1),), two_level.structure_sheaf(), "P1;P2/bidegree-divisor/O"),
        (two_level, ((1, 0), (0, 1)), two_level.line((0, 1)), "P1;P2/codim2/O(xi2)"),
    ]
    for w, cuts, F, label in cases:
        z = VirtualCompleteIntersection(w, cuts)
        for n in range(0, 4):
            instance = immersion_instance(label, z, F, n)
            reports += run_check("immersion-shift", instance, check_immersion, z, F, n, label)
    return reports


def suite_divisor_calculus() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = geometry_scope("P(trivial 4) over point").tower
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 3)]:
        for m in range(1, 4):
            reports += run_check(
                "divisor-restriction", divisor_instance("P3", a, m),
                check_divisor_calculus, p3, a, b, m, "P3",
            )
    return reports


def suite_kappa() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for n in range(1, 10):
        reports += run_check("kappa-multiple", f"n={n}", check_kappa_identity, n)
    for m in range(2, 6):  # the odd degrees 3..9
        reports += run_check("kappa-coefficient-integrality", f"m={m}", _kappa_coefficient, m)
    return reports


def suite_surface_det() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for m in range(0, 7):
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

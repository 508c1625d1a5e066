"""Named verification suites: deterministic lists of VerificationReports.

The registered model geometries are the towers of dimension <= 4 over bases
of dimension <= 2 on which the main identity is exercised for every line
bundle with divisor coefficients in [-2, 2] and every meaningful codimension
n <= 3 (codimensions beyond dim(base)+1 carry no content on these bases and
are skipped; the first vacuous one is kept as a vanishing check).

Suites never raise on a falsified identity: fatal falsifications inside the
engine are caught and converted into failed reports, so the caller always
receives the full stream and the exit-code contract stays simple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .arith import (
    bernoulli,
    check_ekedahl_divisibility,
    exact_ratio,
    fulton_macpherson_L,
    todd_denominator,
    von_staudt_D,
)
from .geometry import (
    Tower,
    VirtualCompleteIntersection,
    build_tower,
    chi_projective_space_oracle,
    euler_characteristic,
    projective_space,
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
)
from .identities import IDENTITY_CHECKS, howe_claims, verify_series_identity
from .report import FalsificationError, VerificationReport
from .series import UNIVERSAL_CLASSES


def _guard(identity: str, instance: str, thunk) -> list[VerificationReport]:
    """Run a report-producing thunk, turning falsifications into failed reports."""
    try:
        result = thunk()
    except FalsificationError as exc:
        return [
            VerificationReport.failure(
                exc.identity or identity, exc.instance or instance, str(exc)
            )
        ]
    return result if isinstance(result, list) else [result]


# ---------------------------------------------------------------------------
# registered geometries
# ---------------------------------------------------------------------------

# (name, levels, base level counts); bases are prefixes of the level list
MODEL_TOWERS: list[tuple[str, list, list[int]]] = [
    ("P1", [[(), ()]], [0]),
    ("P2", [[(), (), ()]], [0]),
    ("P3", [[()] * 4], [0]),
    ("P4", [[()] * 5], [0]),
    ("P1xP1", [[(), ()], [(0,), (0,)]], [0, 1]),
    ("P1;P2", [[(), ()], [(0,), (0,), (0,)]], [0, 1]),
    ("P2;P1", [[(), (), ()], [(0,), (0,)]], [0, 1]),
    ("P2;P2", [[(), (), ()], [(0,), (0,), (0,)]], [0, 1]),
    ("P1;P3", [[(), ()], [(0,)] * 4], [0, 1]),
    ("P3;P1", [[()] * 4, [(0,), (0,)]], [0, 1]),
    ("F1", [[(), ()], [(0,), (1,)]], [0, 1]),
    ("F2", [[(), ()], [(0,), (2,)]], [0, 1]),
    ("P2;P(O+O(h))", [[(), (), ()], [(0,), (1,)]], [0, 1]),
    ("P2;P(O+O(h)+O(2h))", [[(), (), ()], [(0,), (1,), (2,)]], [0, 1]),
    ("P1;P1;P1", [[(), ()], [(0,)] * 2, [(0, 0)] * 2], [0, 1, 2]),
    ("P1;F;twist", [[(), ()], [(0,), (1,)], [(0, 1), (0, 0)]], [0, 1, 2]),
    ("P1^4", [[(), ()], [(0,)] * 2, [(0, 0)] * 2, [(0, 0, 0)] * 2], [0, 1, 2]),
]

_TOWER_CACHE: dict[str, Tower] = {}


def model_tower(name: str) -> Tower:
    if name not in _TOWER_CACHE:
        for n, levels, _ in MODEL_TOWERS:
            if n == name:
                _TOWER_CACHE[name] = build_tower(levels)
                break
        else:
            raise KeyError(name)
    return _TOWER_CACHE[name]


def _sheaf_vectors(n_levels: int, bound: int = 2):
    return product(*(range(-bound, bound + 1) for _ in range(n_levels)))


def _is_product_tower(levels: list) -> bool:
    return all(all(all(c == 0 for c in vec) for vec in level) for level in levels)


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def suite_series_identities(max_degree: int = 8) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name in sorted(IDENTITY_CHECKS):
        reports.extend(
            _guard(name, f"max degree {max_degree}", lambda n=name: verify_series_identity(n, max_degree))
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
        builder, oracle = UNIVERSAL_CLASSES[kind]
        for args in arg_lists:
            instance = f"degree {args[0]}" + "".join(f" rank {r}" for r in args[1:])

            def run(kind=kind, args=args, instance=instance, builder=builder, oracle=oracle):
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
                    oracle(*args).scale(uc.scale).serialize(),
                )
                return [rep_int, rep_agree]

            reports.extend(_guard(f"integrality:{kind}", instance, run))

    def scalars():
        bad: list[str] = []
        for m in range(0, max_degree + 1):
            tm = todd_denominator(m).value
            for j in range(0, m + 1):
                num = factorial(j) * todd_denominator(m - j).value
                if tm % num:
                    bad.append(f"T_{m}/({j}!*T_{m - j})")
                if tm % todd_denominator(m - j).value:
                    bad.append(f"T_{m}/T_{m - j}")
        return [
            VerificationReport.compare(
                "integrality:scalars",
                f"all ratios through degree {max_degree}",
                "; ".join(bad) if bad else "all integral",
                "all integral",
            )
        ]

    reports.extend(_guard("integrality:scalars", "ratios", scalars))
    return reports


def suite_projective_bundle(max_rank: int = 4) -> list[VerificationReport]:
    """The reduction claims for the bundle series, plus the twist-vanishing
    and structure-sheaf pushforward facts on model bundles."""
    reports: list[VerificationReport] = []
    for r in range(1, max_rank + 1):
        reports.extend(
            _guard(
                "bundle-series-reduction",
                f"r={r}",
                lambda r=r: howe_claims(r, r + 4),
            )
        )
    for r in range(1, max_rank):
        pr = projective_space(r)
        for a in range(-r, 0):
            pushed = pushforward_k(pr.line((a,)), 1)
            reports.append(
                VerificationReport.compare(
                    "bundle-twist-vanishing",
                    f"P{r}, twist {a}",
                    pushed.serialize(),
                    "",
                )
            )
        pushed_o = pushforward_k(pr.structure_sheaf(), 1)
        reports.append(
            VerificationReport.compare(
                "bundle-structure-pushforward",
                f"P{r}",
                pushed_o.serialize(),
                "1/1",
            )
        )
    twisted = model_tower("F1")
    pushed = pushforward_k(twisted.line((0, -1)), 1)
    reports.append(
        VerificationReport.compare(
            "bundle-twist-vanishing",
            "F1, twist -1",
            pushed.serialize(),
            "",
        )
    )
    return reports


def suite_main_theorem(coefficient_bound: int = 2) -> list[VerificationReport]:
    """The main identity (both statement shapes and their regrouping) on every
    registered instance, identity morphisms, the dimension <= 4 base cases,
    and the binomial-product Euler-characteristic cross-check."""
    reports: list[VerificationReport] = []
    for name, levels, bases in MODEL_TOWERS:
        tower = model_tower(name)
        for base_levels in bases:
            dim_base = tower.prefix(base_levels).dim
            n_values = range(0, min(3, dim_base + 1) + 1)
            f = MorphismDatum(tower, base_levels, f"{name}->prefix{base_levels}")
            for coeffs in _sheaf_vectors(tower.n_levels, coefficient_bound):
                F = tower.line(coeffs)
                label = "O(" + ",".join(map(str, coeffs)) + ")"
                for n in n_values:
                    reports.extend(
                        _guard(
                            "main-theorem",
                            f"{f.describe()}/sheaf={label}/n={n}",
                            lambda f=f, F=F, n=n, label=label: check_main_theorem(
                                f, F, n, label
                            ),
                        )
                    )
        # identity morphism: no levels collapsed, the error is zero by shape
        ident = MorphismDatum(tower, tower.n_levels, f"{name}->self")
        probe = tower.line((1,) * tower.n_levels)
        for n in range(0, min(3, tower.dim) + 1):
            reports.extend(
                _guard(
                    "main-theorem",
                    f"{ident.describe()}/n={n}",
                    lambda f=ident, F=probe, n=n: check_main_theorem(f, F, n, "O(1,..)"),
                )
            )
        # Euler characteristic against the binomial-product oracle
        if _is_product_tower(levels):
            fiber_dims = [len(level) - 1 for level in levels]
            for coeffs in _sheaf_vectors(tower.n_levels, coefficient_bound):
                chi = euler_characteristic(tower.line(coeffs))
                expected = 1
                for dim_f, a in zip(fiber_dims, coeffs):
                    expected *= chi_projective_space_oracle(dim_f, a)
                reports.append(
                    VerificationReport.compare(
                        "euler-binomial-oracle",
                        f"{name}/O({','.join(map(str, coeffs))})",
                        str(chi),
                        str(expected),
                    )
                )
        # cycle-side degree against the K-side Euler characteristic
        for coeffs in _sheaf_vectors(tower.n_levels, 1):
            F = tower.line(coeffs)

            def run(tower=tower, F=F, name=name, coeffs=coeffs):
                via_chow = euler_characteristic_via_chow(tower, F)
                return [
                    VerificationReport.compare(
                        "euler-hirzebruch-consistency",
                        f"{name}/O({','.join(map(str, coeffs))})",
                        str(via_chow),
                        str(Fraction(euler_characteristic(F))),
                    )
                ]

            reports.extend(_guard("euler-hirzebruch-consistency", name, run))

    # cut-out loci over a base: composite pushforward instances
    p3p2 = build_tower([[()] * 4, [(0,)] * 3])
    vci = VirtualCompleteIntersection(p3p2, ((1, 0),))
    fv = MorphismDatum(vci, 1, "hyperplane-in-P3;P2->P3")
    for n in range(0, 3):
        reports.extend(
            _guard(
                "main-theorem",
                f"{fv.describe()}/n={n}",
                lambda n=n: check_main_theorem(fv, p3p2.structure_sheaf(), n, "O"),
            )
        )
    vci2 = VirtualCompleteIntersection(p3p2, ((1, 1),))
    fv2 = MorphismDatum(vci2, 1, "bidegree-hyperplane-in-P3;P2->P3")
    for n in range(0, 3):
        reports.extend(
            _guard(
                "main-theorem",
                f"{fv2.describe()}/n={n}",
                lambda n=n: check_main_theorem(fv2, p3p2.line((1, 0)), n, "O(1,0)"),
            )
        )
    return reports


def suite_immersion() -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = projective_space(3)
    cases = [
        (p3, ((1,),), p3.structure_sheaf(), "P3/hyperplane/O"),
        (p3, ((2,),), p3.structure_sheaf(), "P3/quadric-class/O"),
        (p3, ((1,), (1,)), p3.structure_sheaf(), "P3/line/O"),
        (p3, ((1,), (1,)), p3.line((1,)), "P3/line/O(h)"),
        (p3, ((1,), (2,)), p3.line((1,)), "P3/degree-2-curve/O(h)"),
    ]
    two_level = build_tower([[(), ()], [(0,), (0,), (0,)]])  # P1 x P2 model
    cases += [
        (two_level, ((1, 1),), two_level.structure_sheaf(), "P1;P2/bidegree-divisor/O"),
        (two_level, ((1, 0), (0, 1)), two_level.line((0, 1)), "P1;P2/codim2/O(xi2)"),
    ]
    for w, cuts, F, label in cases:
        z = VirtualCompleteIntersection(w, cuts)
        for n in range(0, 4):
            reports.extend(
                _guard(
                    "immersion-shift",
                    f"{label}/n={n}",
                    lambda w=w, z=z, F=F, n=n, label=label: check_immersion(
                        w, z, F, n, label
                    ),
                )
            )
    return reports


def suite_divisor_calculus(max_m: int = 3) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    p3 = projective_space(3)
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 3)]:
        for m in range(1, max_m + 1):
            reports.extend(
                _guard(
                    "divisor-restriction",
                    f"P3/a={a}/b={b}/m={m}",
                    lambda a=a, b=b, m=m: check_divisor_calculus(p3, a, b, m, "P3"),
                )
            )
    return reports


def suite_kappa(max_n: int = 9) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for n in range(1, max_n + 1):
        reports.extend(
            _guard("kappa-multiple", f"n={n}", lambda n=n: check_kappa_identity(n))
        )

    def coefficients():
        out = []
        for m in range(2, (max_n + 1) // 2 + 1):
            coeff = (
                Fraction(todd_denominator(2 * m).value)
                * bernoulli(2 * m)
                / factorial(2 * m)
            )
            out.append(
                VerificationReport.compare(
                    "kappa-coefficient-integrality",
                    f"m={m}",
                    "integer" if coeff.denominator == 1 else f"denominator {coeff.denominator}",
                    "integer",
                )
            )
        return out

    reports.extend(_guard("kappa-coefficient-integrality", "range", coefficients))
    return reports


def suite_surface_det(max_m: int = 6) -> list[VerificationReport]:
    return [
        rep
        for m in range(0, max_m + 1)
        for rep in _guard(
            "surface-determinant-exponent",
            f"m={m}",
            lambda m=m: check_surface_det_identity(m),
        )
    ]


def suite_number_theory() -> list[VerificationReport]:
    """The divisibility corollaries: vanishing-order denominators, the
    factorial-multiple divisibility, and the covering-map defect radicals."""
    reports: list[VerificationReport] = []
    for g in range(1, 21):
        d = von_staudt_D(g)
        reports.append(
            VerificationReport.compare(
                "von-staudt-denominator",
                f"g={g}",
                str(d.value),
                str((bernoulli(2 * g) / (2 * g)).denominator),
            )
        )
    for g in range(2, 16):
        ok, witness = check_ekedahl_divisibility(g)
        reports.append(
            VerificationReport.compare(
                "hodge-torsion-divisibility",
                f"g={g}",
                f"quotient {witness}" if ok else f"failed at prime {witness}",
                f"quotient {witness}" if ok else "exact division",
            )
        )
    for n in range(1, 13):
        ln = fulton_macpherson_L(n)
        defect = exact_ratio(todd_denominator(n).value, factorial(n))
        divisible = defect % ln.value == 0
        radical_ok = all(defect % p == 0 for p, _ in ln.factorization)
        reports.append(
            VerificationReport.compare(
                "covering-defect-radical",
                f"n={n}",
                f"L={ln.value} divides defect {defect}: {divisible and radical_ok}",
                f"L={ln.value} divides defect {defect}: True",
            )
        )
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

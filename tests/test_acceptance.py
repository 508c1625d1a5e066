"""Acceptance criteria, one test per criterion at its stated tolerance.

Every identity is exact (integer or rational normal forms compared for
equality); runtimes are asserted against each criterion's budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from grrcheck.arith import (
    bernoulli,
    check_ekedahl_divisibility,
    fulton_macpherson_L,
    primes_up_to,
    todd_denominator,
    von_staudt_D,
)
from grrcheck.geometry import Tower
from grrcheck.grr import MorphismDatum, check_kappa_identity, check_main_theorem
from grrcheck.report import FalsificationError
from grrcheck.series import (
    Mutation,
    set_mutation,
    universal_chern_character,
    universal_todd,
)
from grrcheck.suites import (
    suite_divisor_calculus,
    suite_immersion,
    suite_integrality,
    suite_main_theorem,
    suite_number_theory,
    suite_projective_bundle,
    suite_series_identities,
    suite_surface_det,
)


@contextmanager
def criterion(num: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )
    print(
        f"criterion {num:2d}: PASS in {elapsed:6.2f}s (budget {budget_seconds:.0f}s) - {description}"
    )


def assert_all_pass(reports):
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, [(r.identity, r.instance, (r.discrepancy or "")[:100]) for r in bad]
    assert reports


def test_criterion_01_golden_constants():
    with criterion(1, "Todd denominators and divisibility chains", 1.0):
        def direct(m):
            value = 1
            for p in primes_up_to(m + 1):
                value *= p ** (m // (p - 1))
            return value

        for m in range(13):
            assert todd_denominator(m).value == direct(m)
        assert todd_denominator(2).value == 12
        for m in range(31):
            if m >= 1:
                assert todd_denominator(m).value % factorial(m) == 0
            for mp in range(m, 31):
                assert todd_denominator(mp).value % todd_denominator(m).value == 0


def test_criterion_02_golden_series():
    with criterion(2, "displayed low-degree terms of the two power series", 1.0):
        td1 = universal_todd(1)
        assert td1.series_part.coefficient(c1=1) == Fraction(1, 2)
        td2 = universal_todd(2)
        assert td2.series_part.coefficient(c1=2) == Fraction(1, 12)
        assert td2.series_part.coefficient(c2=1) == Fraction(1, 12)
        td3 = universal_todd(3)
        assert td3.series_part.coefficient(c1=1, c2=1) == Fraction(1, 24)
        assert len(td3.series_part.terms) == 1

        ch0 = universal_chern_character(0)
        assert ch0.series_part.coefficient(r=1) == 1
        ch1 = universal_chern_character(1)
        assert ch1.series_part.coefficient(cp1=1) == 1
        ch2 = universal_chern_character(2)
        assert ch2.series_part.coefficient(cp1=2) == Fraction(1, 2)
        assert ch2.series_part.coefficient(cp2=1) == -1
        ch3 = universal_chern_character(3)
        assert ch3.series_part.coefficient(cp1=3) == Fraction(1, 6)
        assert ch3.series_part.coefficient(cp1=1, cp2=1) == Fraction(-1, 2)
        assert ch3.series_part.coefficient(cp3=1) == Fraction(1, 2)


def test_criterion_03_integrality_suite():
    with criterion(3, "integrality and route agreement for all class families", 60.0):
        assert_all_pass(suite_integrality(12))


def test_criterion_04_formal_identity_suite():
    with criterion(4, "formal power-series identities through degree 8", 120.0):
        assert_all_pass(suite_series_identities(8))


def test_criterion_05_bundle_reduction():
    with criterion(5, "bundle-series reduction claims, ranks 1..4", 60.0):
        assert_all_pass(suite_projective_bundle(4))


def test_criterion_06_model_main_theorem():
    with criterion(6, "main identity on every registered model instance", 300.0):
        assert_all_pass(suite_main_theorem())


def test_criterion_07_immersion_suite():
    with criterion(7, "codimension-shift identities for cut-out loci", 60.0):
        assert_all_pass(suite_immersion())


def test_criterion_08_divisor_calculus():
    with criterion(8, "divisor calculus with matching defect bookkeeping", 60.0):
        assert_all_pass(suite_divisor_calculus(3))


def test_criterion_09_kappa_identity():
    with criterion(9, "tautological-class multiples for relative curves", 10.0):
        rep1 = check_kappa_identity(1)
        assert rep1.passed and rep1.lhs == "1/1 kappa1^1"
        for n in (2, 4, 6):
            rep = check_kappa_identity(n)
            assert rep.passed and rep.lhs == ""
        expected_odd = {}
        for n in (3, 5, 7, 9):
            m = (n + 1) // 2
            coeff = (
                Fraction(todd_denominator(2 * m).value)
                * bernoulli(2 * m)
                / factorial(2 * m)
            )
            assert coeff.denominator == 1
            expected_odd[n] = coeff
        assert expected_odd[3] == -1
        for n, coeff in expected_odd.items():
            rep = check_kappa_identity(n)
            assert rep.passed
            assert rep.lhs == f"{coeff}/1 kappa{n}^1"


def test_criterion_10_number_theory():
    with criterion(10, "divisibility corollaries", 5.0):
        for g in range(1, 21):
            assert von_staudt_D(g).value == (bernoulli(2 * g) / (2 * g)).denominator
        for g in range(2, 16):
            ok, _ = check_ekedahl_divisibility(g)
            assert ok, g
        for n in range(1, 13):
            ln = fulton_macpherson_L(n)
            defect = todd_denominator(n).value // factorial(n)
            assert todd_denominator(n).value % factorial(n) == 0
            assert defect % ln.value == 0
        assert_all_pass(suite_number_theory())


def test_criterion_11_surface_determinant():
    with criterion(11, "surface determinant exponents", 10.0):
        reports = suite_surface_det(6)
        assert_all_pass(reports)
        by_m = {r.instance: r for r in reports if r.identity == "surface-determinant-exponent"}
        for m in range(0, 7):
            expected = m * (6 * m - 4 * m * m - 2)
            assert by_m[f"m={m}"].lhs.splitlines()[1] == f"exponent {expected}"
        assert by_m["m=2"].lhs.splitlines()[1] == "exponent -12"


def test_criterion_12_falsifiability():
    with criterion(12, "single-coefficient mutations are detected and located", 120.0):
        clean = universal_todd(4).numerator
        n_coefficients = len(clean.sorted_terms())
        assert n_coefficients == 5
        p4 = Tower([[()] * 5])
        try:
            for index in range(n_coefficients):
                for delta in (Fraction(1), Fraction(1, 2)):
                    set_mutation(Mutation("todd", 4, index, delta))
                    # suite 3 scoped to the mutated degree
                    try:
                        reports = suite_integrality(4)
                        failures = [r for r in reports if r.verdict != "pass"]
                    except FalsificationError as exc:
                        failures = [exc]
                    assert failures, (index, delta, "integrality missed the mutation")
                    located = failures[0]
                    if hasattr(located, "discrepancy"):
                        assert located.discrepancy
                    # suite 6 machinery on a registered base case using degree 4
                    try:
                        model = check_main_theorem(
                            MorphismDatum(p4, 0, "P4->pt"), p4.structure_sheaf(), 0, "O"
                        )
                        model_failures = [r for r in model if r.verdict != "pass"]
                    except FalsificationError as exc:
                        model_failures = [exc]
                    assert model_failures, (index, delta, "model suite missed the mutation")
        finally:
            set_mutation(None)
        # and the engine is clean again afterwards
        assert universal_todd(4).numerator == clean

"""The first rows of the geometry layer's kill matrix: each hand mutant of the
tower or cut-out code, applied with monkeypatch, turns the immersion and
divisor-calculus suites red, and the failed reports per identity are pinned.

The suites read their towers through suites.geometry_scope, a cache keyed by
geometry text; it is cleared before and after each mutant, so no tower built
by clean code serves a mutant, and no mutant's tower outlives its test.

- G4: the sign of the K rule for l^-1 flipped.
- G5: normal_class counts a repeated cut once.
- C1: koszul_class twists by +D, not -D.
"""

from collections import Counter
from operator import add

import pytest

from grrcheck import suites
from grrcheck.geometry import KClass, Tower, VirtualCompleteIntersection, _padded


def _k_rules_with_flipped_inverse(self):
    """Tower._k_rules with the sign of every l^-1 term flipped."""
    if self.base is None or "k_rules" in self._cache:
        return self._cache.get("k_rules", [])
    r, det_inverse = self.ranks[-1], self._det_inverse
    wedges = self._bundle._lambda_terms(r + 1, 1, False)
    above = {
        v + (-j,): c if j % 2 else -c for j in range(1, r + 2) for v, c in wedges[j].items()
    }
    below = {
        tuple(map(add, v, det_inverse)) + (r + 1 - j,): -c if (r + j) % 2 == 0 else c
        for j in range(r + 1)
        for v, c in wedges[j].items()
    }
    rules = [(_padded(a), _padded(b)) for a, b in self.base._k_rules()] + [(above, below)]
    self._cache["k_rules"] = rules
    return rules


def _normal_class_counting_cuts_once(self):
    return KClass(self.ambient, {c: 1 for c in self.cuts})


def _koszul_class_twisting_by_plus_d(self, f):
    total = f
    for c in self.cuts:
        total = total - total.twist(c)
    return total


MUTANTS = {
    "G4": (Tower, "_k_rules", _k_rules_with_flipped_inverse, {"divisor-k-difference": 9}),
    "G5": (
        VirtualCompleteIntersection, "normal_class", _normal_class_counting_cuts_once,
        {
            "immersion-shift": 2,
            "immersion-character-pushforward": 2,
            "divisor-two-term": 1,
            "divisor-defect-cycles": 1,
            "divisor-difference": 3,
        },
    ),
    "C1": (
        VirtualCompleteIntersection, "koszul_class", _koszul_class_twisting_by_plus_d,
        {
            "immersion-shift": 13,
            "immersion-character-pushforward": 16,
            "divisor-k-two-term": 12,
            "divisor-defect-k": 12,
            "divisor-k-difference": 9,
        },
    ),
}


def _reports():
    suites.geometry_scope.cache_clear()
    try:
        return suites.suite_immersion() + suites.suite_divisor_calculus()
    finally:
        suites.geometry_scope.cache_clear()


def test_the_clean_suites_pass():
    reports = _reports()
    assert len(reports) == 194
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_fails_the_pinned_reports(monkeypatch, mutant):
    owner, name, replacement, failed = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    reports = _reports()
    assert len(reports) == 194
    assert Counter(r.identity for r in reports if not r.passed) == failed

"""The geometry layer's kill matrix: each hand mutant of the tower or cut-out
code, applied with monkeypatch, turns a fixed subset of the suites red, and
the failed reports per identity are pinned.

The subset is the immersion and divisor-calculus suites and the main-theorem
rows of P2, F1 and P1;F;twist.  They read their towers, through
suites.geometry_scope, from geometry.tower, the table of one tower per level
list, which tests/conftest.py empties before and after each test, so no
tower built by clean code serves a mutant, and no mutant's tower outlives
its test.

- G1: each tangent summand is O(xi_k + L), not O(xi_k - L).
- G2: the sign of pi_* l^a below the vanishing band flipped.
- G3: the vanishing band one wider (a = -r - 1 pushes to 0 too).
- G4: the sign of the K rule for l^-1 flipped.
- G5: normal_class counts a repeated cut once.
- G6: every entry of det(E)^-1 one lower.
- C1: koszul_class twists by +D, not -D.
- C2: the virtual tangent is T_W - N^dual, not T_W - N.
- C3: normal_class counts each cut twice, 2[O(D)].
"""

from collections import Counter
from itertools import groupby
from operator import add

import pytest

from grrcheck import suites
from grrcheck.geometry import KClass, Tower, VirtualCompleteIntersection, _padded
from grrcheck.poly import accumulate


def _tangent_class_adding_summands(self):
    """Tower.tangent_class with O(xi_k + L) for each summand L."""
    terms = {(0,) * self.n_levels: -self.n_levels}
    for k, level in enumerate(self.levels):
        for vec in level:
            sym = (*vec, 1) + (0,) * (self.n_levels - k - 1)
            terms[sym] = terms.get(sym, 0) + 1
    return KClass(self, {v: c for v, c in terms.items() if c})


def _pushed_power(sign_below: int, band: int):
    """Tower._pushed_power with (-1)^r times sign_below below the vanishing
    band, and the band -r - band <= a < 0."""

    def pushed_power(self, a):
        table = self._pushed
        if a not in table:
            r = self.ranks[-1]
            if a >= 0:
                table[a] = self._bundle.sym(a).line_terms
            elif a >= -r - band:
                table[a] = {}
            else:
                sym = self._bundle.dual().sym(-a - r - 1).line_terms
                sign = sign_below * (-1 if r % 2 else 1)
                table[a] = accumulate({}, sym, sign, self._det_inverse)
        return table[a]

    return pushed_power


def _k_rules_with_flipped_inverse(self):
    """Tower._k_rules with the sign of every l^-1 term flipped."""
    if self.base is None or "k_rules" in self._cache:
        return self._cache.get("k_rules", [])
    r, det_inverse = self.ranks[-1], self._det_inverse
    wedges = [self._bundle._lambda_terms(j, 1) for j in range(r + 2)]
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


_clean_init = Tower.__init__


def _init_with_lower_det_inverse(self, levels):
    _clean_init(self, levels)
    if self.base is not None:
        self._det_inverse = tuple(x - 1 for x in self._det_inverse)


def _koszul_class_twisting_by_plus_d(self, f):
    total = f
    for c in self.cuts:
        total = total - total.twist(c)
    return total


def _tangent_class_minus_dual_normal(self):
    return self.ambient.tangent_class() - self.normal_class().dual()


def _normal_class_counting_cuts_twice(self):
    return KClass(self.ambient, {c: 2 * self.cuts.count(c) for c in self.cuts})


MAIN_THEOREM = ("main-theorem", "main-theorem-corollary")
MUTANTS = {
    "G1": (
        Tower, "tangent_class", _tangent_class_adding_summands,
        dict(zip(MAIN_THEOREM, (664, 668))),
    ),
    "G2": (Tower, "_pushed_power", _pushed_power(-1, 0), dict(zip(MAIN_THEOREM, (158, 158)))),
    "G3": (Tower, "_pushed_power", _pushed_power(1, 1), dict(zip(MAIN_THEOREM, (190, 190)))),
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
    "G6": (Tower, "__init__", _init_with_lower_det_inverse, dict(zip(MAIN_THEOREM, (159, 161)))),
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
    "C2": (
        VirtualCompleteIntersection, "tangent_class", _tangent_class_minus_dual_normal,
        {
            "immersion-shift": 10,
            "divisor-restriction": 8,
            "divisor-two-term": 8,
            "divisor-defect-cycles": 4,
            "divisor-difference": 6,
        },
    ),
    "C3": (
        VirtualCompleteIntersection, "normal_class", _normal_class_counting_cuts_twice,
        {
            "immersion-shift": 10,
            "immersion-character-pushforward": 13,
            "divisor-restriction": 8,
            "divisor-two-term": 8,
            "divisor-defect-cycles": 4,
            "divisor-difference": 6,
        },
    ),
}
MAIN_THEOREM_TOWERS = ("P2->", "F1->", "P1;F;twist->")


def _reports():
    reports = suites.suite_immersion() + suites.suite_divisor_calculus()
    rows = [row for row in suites.main_theorem_rows() if row[0].startswith(MAIN_THEOREM_TOWERS)]
    for text, group in groupby(rows, key=lambda row: row[1]):
        reports += suites.main_theorem_reports(suites.geometry_scope(text), group)
    return reports


def test_the_clean_suites_pass():
    reports = _reports()
    assert len(reports) == 4004
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_fails_the_pinned_reports(monkeypatch, mutant):
    owner, name, replacement, failed = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    reports = _reports()
    assert len(reports) == 4004
    assert Counter(r.identity for r in reports if not r.passed) == failed

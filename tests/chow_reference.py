"""Chow classes from raw terms, kept as a test helper.

grrcheck.geometry.ChowClass takes over terms already in normal form without
zeros: every class the package builds comes from an operation that keeps
them so.  Tests that start from arbitrary exponents and coefficients reduce
them here first, with the tower's own Chow rules.
"""

from __future__ import annotations

from typing import Mapping

from grrcheck.geometry import ChowClass, Tower
from grrcheck.poly import Monomial, Scalar


def chow_class(tower: Tower, raw: Mapping[Monomial, Scalar]) -> ChowClass:
    """The class of raw terms: any nonnegative exponents, any coefficients,
    zeros among them."""
    return ChowClass(tower, tower._normal_form(raw, tower._chow_rules))

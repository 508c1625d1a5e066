"""A general substitution loop over a term map, kept as a test reference.

The program compiles a universal class on a tower in one pass of its own
(grrcheck.grr.evaluate_universal), specialised to an int rank, Chow-class
c_i and the live sheaf classes.  The general form here takes scalar or
ring-element images and coefficients, which the tests need: a second pass
over the grouped result of a first pass (tests/test_grr.py::two_pass), the
Fraction series parts of tests/rational_reference.py, and the Horner
scheme's tests, which compare horner_eval against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Sequence

from grrcheck.poly import Monomial


def substitute_terms(
    terms: Mapping[Monomial, Any],
    names: Sequence[str],
    images: Mapping[str, Any],
    one: Any,
    keep: Sequence[str] = (),
) -> dict[Monomial, Any]:
    """Substitute ring elements and scalars for the variables of a term map.

    A coefficient or an image is a scalar (int or Fraction) or a ring element
    with *, +, .scale and .is_zero(); one is the ring's unit.  Variables named
    in keep stay symbolic: the result maps their exponent tuple (in keep
    order) to the ring element collected from every monomial with those
    exponents, so with nothing kept the only key is ().  Powers of each image
    are computed once per call.
    """
    kept = [names.index(name) for name in keep]
    powers: dict[tuple[int, int], Any] = {}

    def power(pos: int, e: int):
        if e == 1:
            return images[names[pos]]
        if (pos, e) not in powers:
            powers[pos, e] = power(pos, e - 1) * images[names[pos]]
        return powers[pos, e]

    grouped: dict[Monomial, Any] = {}
    for mono, coeff in terms.items():
        acc, scalar = (None, coeff) if isinstance(coeff, (int, Fraction)) else (coeff, 1)
        for pos, e in enumerate(mono):
            if not e or pos in kept:
                continue
            image = images[names[pos]]
            if isinstance(image, (int, Fraction)):
                scalar *= image**e
                if not scalar:
                    break
            else:
                acc = power(pos, e) if acc is None else acc * power(pos, e)
                if acc.is_zero():
                    break
        else:
            value = one if acc is None else acc
            if scalar != 1:
                value = value.scale(scalar)
            key = tuple(mono[pos] for pos in kept)
            grouped[key] = grouped[key] + value if key in grouped else value
    return grouped

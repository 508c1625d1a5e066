"""The logarithm of a univariate series by a'/a, kept as a test reference.

grrcheck's power-sum route takes k l_k, k times the k-th coefficient of the
log of the per-root series f, from f by the recurrence
n f_n = sum_k k l_k f_{n-k} (series._PowerSumSeries).  The route here
differentiates instead: (log f)' = f'/f, with 1/f by poly.series_invert and
one truncated product.  Both routes share only the exact arithmetic, so the
tests compare the package against this one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from grrcheck.arith import InputError
from grrcheck.poly import Scalar, series_invert


def series_mul(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    out: list[Scalar] = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_log(a: Sequence[Scalar], n: int) -> list[Scalar]:
    """log of a series with constant term 1, via  (log a)' = a'/a."""
    if a[0] != 1:
        raise InputError("series_log needs constant term 1")
    da = [k * a[k] for k in range(1, min(len(a), n + 1))]
    da += [0] * (n - len(da))
    quot = series_mul(da, series_invert(list(a), n), n - 1) if n >= 1 else []
    out: list[Scalar] = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = Fraction(quot[k - 1], k)
    return out

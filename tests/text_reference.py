"""The canonical text forms written out the long way, kept as a test reference.

grrcheck writes packed terms through poly.serialize_keyed, from each
monomial's cached factor text and its packed key, and a report's JSON line from a fixed
template.  The routes here build each line from scratch instead: a term's
text from the variable names and exponents, the term order from the
(weighted degree, exponent tuple) of each monomial, and a report line through
json.dumps of its payload.  The tests compare the package against them.
"""

from __future__ import annotations

import json
from typing import Mapping

from grrcheck.poly import Alphabet, Monomial, Scalar
from grrcheck.report import VerificationReport


def serialize_reference(alphabet: Alphabet, terms: Mapping[Monomial, Scalar]) -> str:
    """One line per nonzero term, "<num>/<den> <var>^<exp> ...", sorted by
    (weighted degree, exponent tuple)."""
    names, weights = alphabet.names(), alphabet.weights
    lines = []
    for mono, coeff in sorted(
        terms.items(), key=lambda kv: (sum(w * e for w, e in zip(weights, kv[0])), kv[0])
    ):
        if not coeff:
            continue
        parts = [f"{coeff.numerator}/{coeff.denominator}"]
        parts.extend(f"{names[i]}^{e}" for i, e in enumerate(mono) if e > 0)
        lines.append(" ".join(parts))
    return "\n".join(lines)


def report_json_reference(report: VerificationReport, timing: bool = False) -> str:
    """The report line as json.dumps writes its payload."""
    payload = {
        "schema": "1",
        "identity": report.identity,
        "instance": report.instance,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "verdict": report.verdict,
        "discrepancy": report.discrepancy,
        "millis": report.millis if timing else None,
    }
    if report.notes is not None:
        payload["notes"] = report.notes
    return json.dumps(payload, sort_keys=False, separators=(",", ":"))

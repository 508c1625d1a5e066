"""Structured pass/fail records for identity checks, and the JSON wire format.

A report's verdict is "pass" exactly when the two sides' canonical
serializations are byte-identical; the first differing line is recorded as
the discrepancy.  Every check of the suites and the CLI runs through
run_check, so a falsification is one failed report and the caller keeps the
rest.  Timing is kept out of the default JSON encoding so that report
streams are byte-identical across runs (see the CLI --timing flag).

A report's JSON line is byte for byte json.dumps(payload, separators=(",",
":")) of "schema" and then its fields in declaration order, notes only when
set; to_json fills a fixed template, each string through json's ASCII escaper.

Record is the package's one base for value records (reports, parser nodes,
complete intersections, ...): plain classes with __slots__, equal when of one
type with equal fields.  Its constructor stores one value per field, in
__slots__ order; a record that does more (validation, derived fields), or
one built on a hot path (one report per report of the stream), writes its
own.  It replaces dataclasses, whose import and generated methods took most
of the package's import time.
"""

from __future__ import annotations

import time
from itertools import zip_longest
from json.encoder import encode_basestring_ascii as _quote


class FalsificationError(AssertionError):
    """An identity or integrality claim asserted by the theory failed.

    This is raised where a failure is fatal for the surrounding computation
    (e.g. a non-exact scalar division); run_check catches it and turns it
    into a failed report.
    """

    def __init__(self, message: str, *, identity: str = "", instance: str = ""):
        super().__init__(message)
        self.identity = identity
        self.instance = instance


class Record:
    """Construction, equality, hash and repr from the fields a subclass
    lists in __slots__."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(shown)})"


class VerificationReport(Record):
    __slots__ = ("identity", "instance", "lhs", "rhs", "verdict", "discrepancy", "millis", "notes")
    __hash__ = None  # millis is stamped after construction

    def __init__(
        self,
        identity: str,
        instance: str,
        lhs: str,
        rhs: str,
        verdict: str,  # "pass" | "fail"
        discrepancy: str | None,
        millis: int | None,
        notes: str | None,
    ):
        self.identity = identity
        self.instance = instance
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict
        self.discrepancy = discrepancy
        self.millis = millis
        self.notes = notes

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @staticmethod
    def compare(
        identity: str,
        instance: str,
        lhs: str,
        rhs: str,
        notes: str | None = None,
    ) -> "VerificationReport":
        if lhs == rhs:
            return VerificationReport(identity, instance, lhs, rhs, "pass", None, None, notes)
        return VerificationReport(
            identity, instance, lhs, rhs, "fail", first_discrepancy(lhs, rhs), None, notes
        )

    @staticmethod
    def failure(identity: str, instance: str, message: str) -> "VerificationReport":
        return VerificationReport(identity, instance, "", "", "fail", message, None, None)

    def to_json(self, timing: bool = False) -> str:
        discrepancy = "null" if self.discrepancy is None else _quote(self.discrepancy)
        millis = "null" if self.millis is None or not timing else self.millis
        notes = "" if self.notes is None else f',"notes":{_quote(self.notes)}'
        return (
            f'{{"schema":"1","identity":{_quote(self.identity)},'
            f'"instance":{_quote(self.instance)},"lhs":{_quote(self.lhs)},'
            f'"rhs":{_quote(self.rhs)},"verdict":{_quote(self.verdict)},'
            f'"discrepancy":{discrepancy},"millis":{millis}{notes}}}'
        )


def run_check(identity: str, instance: str, check, *args) -> list[VerificationReport]:
    """Run check(*args), which returns one report or a list of them; a
    FalsificationError becomes one failed report under this check's identity
    and instance, its discrepancy led by the claim the error names where that
    is another one.  The wall time in milliseconds is stamped as millis on
    the first report and 0 on the rest."""
    started = time.monotonic()
    try:
        result = check(*args)
    except FalsificationError as exc:
        named = (exc.identity or identity, exc.instance or instance)
        claim = "" if named == (identity, instance) else " ".join(filter(None, named)) + ": "
        result = VerificationReport.failure(identity, instance, f"{claim}{exc}")
    reports = result if isinstance(result, list) else [result]
    elapsed_ms = int((time.monotonic() - started) * 1000)
    for i, rep in enumerate(reports):
        rep.millis = 0 if i else elapsed_ms
    return reports


def first_discrepancy(lhs: str, rhs: str) -> str:
    """The first line where the sides differ, a side's missing line read as <absent>."""
    lines = zip_longest(lhs.splitlines(), rhs.splitlines(), fillvalue="<absent>")
    for i, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {i}: lhs={a!r} rhs={b!r}"
    return "sides differ"

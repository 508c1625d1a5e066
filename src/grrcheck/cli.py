"""Command line front end: generators and verification suites.

Exit codes: 0 all checks pass, 1 at least one identity falsified, 2 usage or
input error (an InputError: a flag's value, which only this module checks,
or a flag the chosen suite or gen kind does not read, refused when typed at
all, even at its default value), 3 stdout closed before the output was
written (e.g. piped into ``head``) or any other failure, such as a broken
invariant (one ``internal error:`` line on stderr), 130 interrupted (SIGINT;
one ``interrupted`` line on stderr).  ``verify`` emits one JSON
object per report, ordered by (identity, instance); the stream is
byte-identical across runs unless --timing is given (timing is the only
nondeterministic field: each report's millis is the wall time of the check
that produced it, stamped on its first report, with 0 on the others).  Every
check runs through report.run_check, as in the suites: a single-instance
query (``verify main-theorem --geometry ...``) is one row of
suites.main_theorem_rows' shape, built from the flags' text (the geometry
text its label, the sheaf text its sheaf label).  Its guards read the parsed
geometry before any tower is built, and its cuts on the query's tower, the
one that geometry.tower keeps for its level list; then the suite's own function, suites.main_theorem_reports, reads
its sheaf there and runs each n as its own check, so a falsified n is one
failed report and the other n still print.  ``gen`` prints text by default
and a JSON object with --json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache, partial

from .arith import InputError, bernoulli, fulton_macpherson_L, todd_denominator, von_staudt_D
from .identities import IDENTITY_CHECKS
from .report import FalsificationError, VerificationReport
from .series import UNIVERSAL_CLASSES, Mutation, mutation_read, set_mutation
from .geometry import RANK_LIMIT
from .specparse import build_geometry, geometry_shape, parse_divisor, parse_geometry
from .suites import SUITES, main_theorem_reports, run_identity, suite_all

DEFAULT_MAX_DEGREE = 12
DEFAULT_MAX_DIM = 6


def _at_least(low: int):
    """The argparse type of an int >= low; argparse exits 2 on anything else."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


class _Typed(argparse.Action):
    """Store a flag's value (append it, for --cut's list) and add the flag to
    the namespace's typed set: a flag typed at its default value is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        if isinstance(self.default, list):
            values = [*getattr(namespace, self.dest), values]
        setattr(namespace, self.dest, values)
        namespace.typed = getattr(namespace, "typed", frozenset()) | {self.option_strings[0]}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    natural, positive = _at_least(0), _at_least(1)  # ints >= 0 and >= 1
    parser = argparse.ArgumentParser(
        prog="grrcheck",
        description="Exact generators and verifiers for integral "
        "characteristic-class identities on model geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a generated object")
    gen.add_argument("kind", choices=[*UNIVERSAL_CLASSES, "tm", "bernoulli", "D", "L"])
    gen.add_argument("--degree", action=_Typed, type=natural, help="degree of a universal class")
    gen.add_argument("--rank", action=_Typed, type=positive, help="number of roots for toddinv")
    gen.add_argument("--m", action=_Typed, type=natural, help="index for tm")
    gen.add_argument("--n", action=_Typed, type=natural, help="index for bernoulli/L")
    gen.add_argument("--g", action=_Typed, type=positive, help="index for D")
    gen.add_argument("--json", action="store_true")
    gen.add_argument("--max-degree", action=_Typed, type=natural, default=DEFAULT_MAX_DEGREE)

    verify = sub.add_parser("verify", help="run a verification suite or identity")
    verify.add_argument(
        "suite",
        help="a suite name (%s), an identity name, or 'all'"
        % ", ".join(sorted(SUITES)),
    )
    verify.add_argument("--max-degree", action=_Typed, type=natural)
    verify.add_argument("--max-dim", action=_Typed, type=natural, default=DEFAULT_MAX_DIM)
    verify.add_argument("-n", action=_Typed, type=natural, help="target codimension")
    verify.add_argument("--geometry", action=_Typed)
    verify.add_argument("--sheaf", action=_Typed)
    verify.add_argument(
        "--base-levels", action=_Typed, type=natural, default=0, help="levels kept as the base"
    )
    verify.add_argument(
        "--cut", action=_Typed, default=[], help="divisor cutting the source (repeatable)"
    )
    verify.add_argument("--timing", action="store_true", help="include millis in JSON")
    verify.add_argument(
        "--mutate", help="test harness: corrupt a generated class, kind:degree:index:delta"
    )
    return parser


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _gen_universal(kind: str, args) -> tuple[dict, str]:
    degree = args.degree
    if degree > args.max_degree:
        raise InputError(
            f"degree {degree} exceeds the guard {args.max_degree}; raise it with --max-degree"
        )
    if kind == "toddinv" and args.rank > degree:
        raise InputError(f"gen toddinv needs --rank <= --degree, got {args.rank} > {degree}")
    if kind == "q" and degree < 1:
        raise InputError(f"gen q needs --degree >= 1, got {degree}")
    builder, _ = UNIVERSAL_CLASSES[kind]
    uc = builder(degree, args.rank) if kind == "toddinv" else builder(degree)
    payload = {
        "schema": "1",
        "kind": kind,
        "degree": uc.degree,
        "scale": str(uc.scale),
        "integral": True,  # _finish certified the numerator
        "numerator": uc.numerator.serialize(),
        "pretty": uc.numerator.pretty(),
    }
    if kind in ("todd", "ct"):
        scale_line = str(todd_denominator(uc.degree))
    elif kind == "q":
        scale_line = str(todd_denominator(uc.degree - 1))
    else:
        scale_line = str(uc.scale)
    text = (
        f"kind: {kind}\n"
        f"degree: {uc.degree}\n"
        f"scale: {scale_line}\n"
        f"numerator: {uc.numerator.pretty()}"
    )
    return payload, text


# factored integer kinds: kind -> (index flag, generator)
FACTORED_NUMBERS = {
    "tm": ("m", todd_denominator),
    "D": ("g", von_staudt_D),
    "L": ("n", fulton_macpherson_L),
}


def _gen_number(kind: str, args) -> tuple[dict, str]:
    if kind == "bernoulli":
        value = _decimal(kind, bernoulli(args.n))
        return (
            {"schema": "1", "kind": "bernoulli", "n": args.n, "value": value},
            f"B_{args.n} = {value}",
        )
    flag, generator = FACTORED_NUMBERS[kind]
    index = getattr(args, flag)
    if kind == "L" and index < 1:
        raise InputError(f"gen L needs --n >= 1, got {index}")
    fi = generator(index)
    return (
        {
            "schema": "1",
            "kind": kind,
            flag: index,
            "value": _decimal(kind, fi.value),
            "factorization": {str(p): e for p, e in fi.factorization},
        },
        str(fi),
    )


def _decimal(kind: str, number: int | Fraction) -> str:
    """number as decimal text, which Python refuses past its int-digit limit."""
    try:
        return str(number)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"{kind} value exceeds the {limit}-digit limit of decimal text") from None


def cmd_gen(args) -> int:
    kind = args.kind
    universal = kind in UNIVERSAL_CLASSES
    reads = {"--degree": universal, "--rank": kind == "toddinv", "--m": kind == "tm"}
    reads |= {"--n": kind in ("bernoulli", "L"), "--g": kind == "D", "--max-degree": universal}
    _refuse_unread(f"gen {kind}", args, reads)
    for flag, read in reads.items():
        if read and getattr(args, flag[2:].replace("-", "_")) is None:
            raise InputError(f"{flag} is required for {kind}")
    if universal:
        payload, text = _gen_universal(kind, args)
    else:
        payload, text = _gen_number(kind, args)
    print(json.dumps(payload, sort_keys=False) if args.json else text)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_mutation(spec: str) -> Mutation:
    try:
        kind, degree, index, delta = spec.split(":")
        mutation = Mutation(kind, int(degree), int(index), Fraction(delta))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad mutation spec {spec!r}: {exc}") from None
    if kind not in UNIVERSAL_CLASSES:
        known = ", ".join(UNIVERSAL_CLASSES)
        raise InputError(f"bad mutation spec {spec!r}: unknown kind {kind!r} (known: {known})")
    if mutation.degree < 0 or mutation.index < 0:
        raise InputError(f"bad mutation spec {spec!r}: degree and index must be >= 0")
    if mutation.delta == 0:
        raise InputError(f"bad mutation spec {spec!r}: delta must be nonzero")
    return mutation


def _single_instance_reports(args) -> list[VerificationReport]:
    geometry = parse_geometry(args.geometry)
    ranks = geometry_shape(geometry)
    dim = sum(ranks)
    if dim > args.max_dim:
        raise InputError(
            f"geometry dimension {dim} exceeds the guard {args.max_dim}; "
            "raise it with --max-dim"
        )
    # every n above dim S + 1 is vacuous, and dim S <= --max-dim
    if args.n is not None and args.n > args.max_dim + 1:
        raise InputError(
            f"codimension {args.n} exceeds the guard {args.max_dim + 1} (--max-dim + 1); "
            "raise it with --max-dim"
        )
    for level, rank in enumerate(ranks, 1):
        if rank >= RANK_LIMIT:
            raise InputError(f"level {level} has rank {rank}; a rank must be below {RANK_LIMIT}")
    if args.base_levels > len(ranks):
        raise InputError(f"base levels {args.base_levels} outside 0..{len(ranks)}")
    if len(args.cut) > dim:
        raise InputError(f"more cuts ({len(args.cut)}) than the geometry dimension {dim}")
    scope = build_geometry(geometry)
    for cut in args.cut:  # a zero cut's Koszul factor 1 - O(0) is 0: every side would vanish
        if not any(scope.divisor_vector(parse_divisor(cut))):
            raise InputError(f"--cut {cut!r} is the zero divisor")
    sheaf = args.sheaf or "O"
    n_values = [args.n] if args.n is not None else range(0, 4)
    row = (args.geometry, args.geometry, args.cut, args.base_levels, [(sheaf, sheaf)], n_values)
    return main_theorem_reports(scope, [row])


def _refuse_unread(command: str, args, reads: dict[str, bool]) -> None:
    """Reject every flag typed for the command that it does not read; reads
    maps each flag to whether the command reads it."""
    typed = getattr(args, "typed", ())
    ignored = [flag for flag, read in reads.items() if flag in typed and not read]
    if ignored:
        raise InputError(f"{', '.join(ignored)} not used by {command}")


def _check_target(args) -> None:
    """Reject an unknown target, and any flag typed for it that it would not
    read, even at the flag's default value."""
    known = sorted({*SUITES, *IDENTITY_CHECKS, "all"})
    if args.suite not in known:
        raise InputError(
            f"unknown suite or identity {args.suite!r}; known: {', '.join(known)}"
        )
    single = args.suite == "main-theorem" and args.geometry is not None
    by_degree = args.suite in ("series-identities", "integrality", *IDENTITY_CHECKS)
    query_flags = ("--max-dim", "-n", "--geometry", "--sheaf", "--base-levels", "--cut")
    reads = {"--max-degree": by_degree, **dict.fromkeys(query_flags, single)}
    _refuse_unread(f"verify {args.suite}", args, reads)


def cmd_verify(args) -> int:
    _check_target(args)
    mutation = _parse_mutation(args.mutate) if args.mutate else None
    set_mutation(mutation)
    try:
        if args.suite == "all":
            reports = suite_all()
        elif args.suite == "main-theorem" and args.geometry is not None:
            reports = _single_instance_reports(args)
        else:
            suite = SUITES.get(args.suite) or partial(run_identity, args.suite)
            reports = suite() if args.max_degree is None else suite(args.max_degree)
        if mutation and not mutation_read():
            print(
                f"note: no check built {mutation.kind} of degree {mutation.degree}, "
                f"so --mutate {args.mutate} changed nothing",
                file=sys.stderr,
            )
    finally:
        set_mutation(None)

    reports.sort(key=lambda r: (r.identity, r.instance))
    failed = False
    for rep in reports:
        print(rep.to_json(timing=args.timing))
        failed = failed or not rep.passed
    return 1 if failed else 0


def _run(args) -> int:
    try:
        return cmd_gen(args) if args.command == "gen" else cmd_verify(args)
    except InputError as exc:  # a ParseError or ScopeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(
            VerificationReport.failure(
                exc.identity or "falsification", exc.instance, str(exc)
            ).to_json()
        )
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--cut":  # the next word is the value, even a dash-led -3*xi1
            argv[i : i + 2] = [f"--cut={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout once more at exit; point the descriptor at
        # devnull so that flush cannot fail again and print a traceback.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass  # a stream without a descriptor holds nothing to flush at exit
        return 3
    except Exception as exc:  # neither usage nor falsification: _run handled those
        prefix = "" if isinstance(exc, AssertionError) else f"{type(exc).__name__}: "
        print(f"internal error: {prefix}{exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

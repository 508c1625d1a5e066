"""Command line front end: generators and verification suites.

Exit codes: 0 all checks pass, 1 at least one identity falsified, 2 usage or
input error (including a flag the chosen suite does not read), 3 stdout closed
before the output was written (e.g. piped into ``head``) or an internal
invariant failed, 130 interrupted (SIGINT; one ``interrupted`` line on
stderr).  ``verify`` emits one JSON object per report, ordered by
(identity, instance); the stream is byte-identical across runs unless
--timing is given (timing is the only nondeterministic field: each report's
millis is the wall time of the check that produced it, stamped on its first
report, with 0 on the others).  Every check runs through report.run_check,
as in the suites: a single-instance query (``verify main-theorem
--geometry ...``) runs each n as its own check, so a falsified n is one
failed report and the other n still print.  ``gen`` prints text by default
and a JSON object with --json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .arith import (
    InputError,
    bernoulli,
    fulton_macpherson_L,
    todd_denominator,
    von_staudt_D,
)
from .geometry import VirtualCompleteIntersection
from .grr import MorphismDatum, check_main_theorem
from .identities import IDENTITY_CHECKS, verify_series_identity
from .report import FalsificationError, VerificationReport, run_check
from .series import UNIVERSAL_CLASSES, Mutation, set_mutation
from .specparse import (
    ParseError,
    ScopeError,
    build_geometry,
    evaluate_class,
    geometry_dim,
    parse_class,
    parse_divisor,
    parse_geometry,
)
from .suites import SUITES, suite_all

DEFAULT_MAX_DEGREE = 12
DEFAULT_MAX_DIM = 6


def _degree(text: str) -> int:
    """A --max-degree value, an int >= 0; argparse exits 2 on anything else."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="grrcheck",
        description="Exact generators and verifiers for integral "
        "characteristic-class identities on model geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a generated object")
    gen.add_argument(
        "kind",
        choices=[*UNIVERSAL_CLASSES, "tm", "bernoulli", "D", "L"],
    )
    gen.add_argument("--degree", type=int, help="degree for todd/ch/ct/q/toddinv")
    gen.add_argument("--rank", type=int, help="number of roots for toddinv")
    gen.add_argument("--m", type=int, help="index for tm")
    gen.add_argument("--n", type=int, help="index for bernoulli/L")
    gen.add_argument("--g", type=int, help="index for D")
    gen.add_argument("--json", action="store_true")
    gen.add_argument("--max-degree", type=_degree, default=DEFAULT_MAX_DEGREE)

    verify = sub.add_parser("verify", help="run a verification suite or identity")
    verify.add_argument(
        "suite",
        help="a suite name (%s), an identity name, or 'all'"
        % ", ".join(sorted(SUITES)),
    )
    verify.add_argument("--max-degree", type=_degree, default=None)
    verify.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    verify.add_argument("-n", type=int, default=None, help="target codimension")
    verify.add_argument("--geometry", type=str, default=None)
    verify.add_argument("--sheaf", type=str, default=None)
    verify.add_argument(
        "--base-levels", type=int, default=0, help="levels kept as the base"
    )
    verify.add_argument(
        "--cut",
        action="append",
        default=[],
        help="divisor expression cutting the source (repeatable)",
    )
    verify.add_argument("--timing", action="store_true", help="include millis in JSON")
    verify.add_argument(
        "--mutate",
        type=str,
        default=None,
        help="test harness: corrupt a generated class, kind:degree:index:delta",
    )
    return parser


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _gen_universal(kind: str, args) -> tuple[dict, str]:
    degree = args.degree
    if degree is None:
        raise InputError("--degree is required for this kind")
    if degree > max(DEFAULT_MAX_DEGREE, args.max_degree):
        raise InputError(
            f"degree {degree} exceeds the resource guard; raise it with --max-degree"
        )
    if kind == "toddinv" and args.rank is None:
        raise InputError("--rank is required for toddinv")
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
        if args.n is None:
            raise InputError("--n is required for bernoulli")
        b = bernoulli(args.n)
        return (
            {"schema": "1", "kind": "bernoulli", "n": args.n, "value": str(b)},
            f"B_{args.n} = {b}",
        )
    flag, generator = FACTORED_NUMBERS[kind]
    index = getattr(args, flag)
    if index is None:
        raise InputError(f"--{flag} is required for {kind}")
    fi = generator(index)
    return (
        {
            "schema": "1",
            "kind": kind,
            flag: index,
            "value": str(fi.value),
            "factorization": {str(p): e for p, e in fi.factorization},
        },
        str(fi),
    )


def cmd_gen(args) -> int:
    if args.kind in UNIVERSAL_CLASSES:
        payload, text = _gen_universal(args.kind, args)
    else:
        payload, text = _gen_number(args.kind, args)
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
    return mutation


def _single_instance_reports(args) -> list[VerificationReport]:
    geometry = parse_geometry(args.geometry)
    dim = geometry_dim(geometry)
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
    scope = build_geometry(geometry)
    sheaf_text = args.sheaf or "O"
    sheaf = evaluate_class(parse_class(sheaf_text), scope)
    if args.cut:
        cuts = tuple(scope.divisor_vector(parse_divisor(c)) for c in args.cut)
        source = VirtualCompleteIntersection(scope.tower, cuts)
    else:
        source = scope.tower
    morphism = MorphismDatum(source, args.base_levels, args.geometry)
    n_values = [args.n] if args.n is not None else list(range(0, 4))
    reports: list[VerificationReport] = []
    for n in n_values:
        instance = f"{morphism.describe()}/sheaf={sheaf_text}/n={n}"
        reports.extend(
            run_check("main-theorem", instance, check_main_theorem, morphism, sheaf, n, sheaf_text)
        )
    return reports


def _check_target(args) -> None:
    """Reject an unknown target, and any flag the target would not read (a
    flag counts as given when its value differs from the default)."""
    known = sorted({*SUITES, *IDENTITY_CHECKS, "all"})
    if args.suite not in known:
        raise InputError(
            f"unknown suite or identity {args.suite!r}; known: {', '.join(known)}"
        )
    single = args.suite == "main-theorem" and args.geometry is not None
    by_degree = args.suite in ("series-identities", "integrality", *IDENTITY_CHECKS)
    flags = {
        "--max-degree": (args.max_degree is not None, by_degree),
        "--max-dim": (args.max_dim != DEFAULT_MAX_DIM, single),
        "-n": (args.n is not None, single),
        "--geometry": (args.geometry is not None, single),
        "--sheaf": (args.sheaf is not None, single),
        "--base-levels": (args.base_levels != 0, single),
        "--cut": (bool(args.cut), single),
    }
    ignored = [flag for flag, (given, read) in flags.items() if given and not read]
    if ignored:
        raise InputError(f"{', '.join(ignored)} not used by verify {args.suite}")


def cmd_verify(args) -> int:
    _check_target(args)
    if args.mutate:
        set_mutation(_parse_mutation(args.mutate))
    try:
        if args.suite == "all":
            reports = suite_all()
        elif args.suite == "main-theorem" and args.geometry is not None:
            reports = _single_instance_reports(args)
        elif args.suite in SUITES:
            suite = SUITES[args.suite]
            reports = suite() if args.max_degree is None else suite(args.max_degree)
        else:
            max_degree = args.max_degree if args.max_degree is not None else 8
            reports = run_check(args.suite, "", verify_series_identity, args.suite, max_degree)
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
    except (InputError, ParseError, ScopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(
            VerificationReport.failure(
                exc.identity or "falsification", exc.instance, str(exc)
            ).to_json()
        )
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Every method in the package is entered by a run of the program, every
function is reached from it, and every module uses the names it imports.

Methods and functions are checked against a traced run.  A fixed list of
program calls runs under sys.setprofile: every suite (at a small size where
it takes one; main-theorem at its one size, about 3 s traced), every gen kind
as text and as JSON, single-instance queries with a cut, a rank-0
level and an alias, parse, scope and usage errors, and --mutate runs.  The
calls run in a fresh interpreter (this file run as a script), because the
package memoises universal classes and model towers: a process that other
tests have warmed would skip their builders.

- A method (a function defined in a class body, dunders included) must be
  entered by the traced run.  Sharing its name with an attribute read
  elsewhere no longer counts.  Two dunders are exempt: __repr__, which only
  message and traceback text reads, and an __eq__ whose class's __hash__
  the traced run enters (a hashed key must compare by the fields it
  hashes).
- A module-level function must be entered, or named inside a function or
  method the traced run entered: suite_all, for one, runs only under verify
  all, which the run leaves out for time, and cmd_verify names it.

Helpers only tests call are flagged, so tests exercise the code paths the
program runs.  An imported name counts as used when it appears as a name in
its module; a deletion that leaves an import behind is flagged.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grrcheck"

QUERY = ["verify", "main-theorem", "--geometry"]
GEN_KINDS = [
    ["todd", "--degree", "3"],
    ["ch", "--degree", "3"],
    ["ct", "--degree", "3"],
    ["q", "--degree", "3"],
    ["toddinv", "--degree", "4", "--rank", "2"],
    ["tm", "--m", "4"],
    ["bernoulli", "--n", "4"],
    ["D", "--g", "2"],
    ["L", "--n", "3"],
]
# (argv of cli.main, its exit code)
CLI_CALLS = [
    (["verify", "series-identities", "--max-degree", "3"], 0),
    (["verify", "integrality", "--max-degree", "4", "--timing"], 0),
    (["verify", "todd-additivity", "--max-degree", "3"], 0),
    (["verify", "projective-bundle"], 0),
    (["verify", "immersion"], 0),
    (["verify", "divisor-calculus"], 0),
    (["verify", "kappa"], 0),
    (["verify", "surface-det"], 0),
    (["verify", "number-theory"], 0),
    (["verify", "main-theorem"], 0),
    *[(["gen", *kind, *form], 0) for kind in GEN_KINDS for form in ([], ["--json"])],
    (QUERY + ["P(trivial 4) over point", "--cut", "h", "-n", "1"], 0),
    (QUERY + ["P([0]) over P(trivial 3) over point", "--sheaf", "O(xi2) + O(h)",
              "--base-levels", "1", "-n", "1"], 0),
    (QUERY + ["P([0, h]) as F over P(trivial 2) over point", "--base-levels", "1",
              "--sheaf", "twist(F, dual(O(F)) + sym(2, O(h)) - wedge(2, O + O(h)))"], 0),
    (QUERY + ["P(trivial 2) over point", "--mutate", "ct:2:0:1/2"], 1),
    (["verify", "integrality", "--max-degree", "3", "--mutate", "todd:2:0:1"], 1),
    (QUERY + ["P(trivial 2 over point"], 2),
    (QUERY + ["P(trivial 2) over point", "--sheaf", "O(zz)"], 2),
    (["verify", "kappa", "--max-degree", "3"], 2),
    (["gen", "todd"], 2),
    (["gen", "nope"], 2),
]


def traced_run() -> dict:
    """Run the program calls under sys.setprofile; return the (file, first
    line) of every package code object entered and the calls whose exit
    code differed."""
    from grrcheck import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    wrong = []
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, code in CLI_CALLS:
                got = cli.main(argv)
                if got != code:
                    wrong.append([argv, got, code])
    finally:
        sys.setprofile(None)
    places = {
        (Path(c.co_filename).name, c.co_firstlineno)
        for c in entered
        if Path(c.co_filename).resolve().parent == SRC
    }
    return {"entered": sorted(places), "wrong_exit_codes": wrong}


@cache
def _traced() -> tuple[set, list]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    return {tuple(place) for place in result["entered"]}, result["wrong_exit_codes"]


def _definitions_and_uses():
    defs = []  # (file, qualified name, short name, is method, first line, last line)
    uses = []  # (file, name, line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            for qualname, fn in members:
                # a code object's first line is that of its first decorator
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                defs.append((path.name, qualname, fn.name, "." in qualname, first, fn.end_lineno))
        uses += [(path.name, n.id, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Name)]
    return defs, uses


def test_the_traced_calls_exit_as_expected():
    _, wrong = _traced()
    assert not wrong, f"[argv, exit code, expected]: {wrong}"


def test_every_function_is_reached_from_the_package():
    entered, _ = _traced()
    defs, uses = _definitions_and_uses()
    spans = [(file, first, last) for file, _, _, _, first, last in defs if (file, first) in entered]
    unreached = []
    hashed = {
        (file, qualname.split(".")[0])
        for file, qualname, name, _, first, _ in defs
        if name == "__hash__" and (file, first) in entered
    }
    for file, qualname, name, is_method, first, last in defs:
        if (file, first) in entered or name == "__repr__":
            continue
        if name == "__eq__" and (file, qualname.split(".")[0]) in hashed:
            continue
        named = not is_method and any(
            used == name
            and not (used_file == file and first <= line <= last)
            and any(used_file == f and lo <= line <= hi for f, lo, hi in spans)
            for used_file, used, line in uses
        )
        if not named:
            unreached.append(f"{file}: {qualname}")
    assert not unreached, "the traced program run never reaches: " + ", ".join(unreached)


def test_the_import_leaves_dataclasses_out():
    # -S: no site hook may import dataclasses first and hide a regression
    code = "import sys, grrcheck.cli, grrcheck.suites; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=SRC.parent, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used
        ]
    assert not unused, "imported but never used: " + ", ".join(unused)


if __name__ == "__main__":
    print(json.dumps(traced_run()))

import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grrcheck import cli, geometry, grr, series, specparse, suites
from grrcheck.cli import main
from grrcheck.report import FalsificationError
from grrcheck.suites import SUITES, main_theorem_rows, suite_main_theorem
from grrcheck.series import (
    q_poly,
    todd_inverse_numerator,
    universal_chern_character,
    universal_ct,
    universal_todd,
)

GOLDEN = Path(__file__).parent / "golden"
# the benchmark's recorded reference outputs and catalogue digests, read only
BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = BENCH / "reference.json"
CATALOGUE_DIGESTS = BENCH / "catalogue_digests.txt"
SRC = Path(__file__).resolve().parent.parent / "src" / "grrcheck"


def spy_generators(monkeypatch) -> list:
    """Replace every universal class builder and arith generator gen calls by
    a spy, and return the list each call is appended to."""
    calls = []

    def spy(name):
        return lambda *args: calls.append((name, args))

    for kind in series.UNIVERSAL_CLASSES:
        monkeypatch.setitem(series.UNIVERSAL_CLASSES, kind, (spy(kind), spy(f"{kind} oracle")))
    for kind, (flag, generator) in cli.FACTORED_NUMBERS.items():
        monkeypatch.setitem(cli.FACTORED_NUMBERS, kind, (flag, spy(generator.__name__)))
    for name in ("bernoulli", "todd_denominator"):
        monkeypatch.setattr(cli, name, spy(name))
    return calls


class TestGoldenSerializations:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_todd(self, m):
        expected = (GOLDEN / f"todd_num_{m}.txt").read_text()
        assert universal_todd(m).numerator.serialize() + "\n" == expected

    @pytest.mark.parametrize("m", range(0, 7))
    def test_ch(self, m):
        expected = (GOLDEN / f"ch_num_{m}.txt").read_text()
        assert universal_chern_character(m).numerator.serialize() + "\n" == expected

    @pytest.mark.parametrize("m", range(0, 5))
    def test_ct(self, m):
        expected = (GOLDEN / f"ct_num_{m}.txt").read_text()
        assert universal_ct(m).numerator.serialize() + "\n" == expected

    @pytest.mark.parametrize("m", range(1, 5))
    def test_q(self, m):
        expected = (GOLDEN / f"q_num_{m}.txt").read_text()
        assert q_poly(m).numerator.serialize() + "\n" == expected

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 2), (5, 2), (6, 3)])
    def test_toddinv(self, m, r):
        expected = (GOLDEN / f"toddinv_num_{m}_{r}.txt").read_text()
        assert todd_inverse_numerator(m, r).numerator.serialize() + "\n" == expected


class TestGen:
    def test_todd_text(self, capsys):
        assert main(["gen", "todd", "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "numerator: c1*c2" in out
        assert "24" in out

    def test_tm(self, capsys):
        assert main(["gen", "tm", "--m", "4"]) == 0
        assert capsys.readouterr().out.strip() == "720 = 2^4 * 3^2 * 5"

    def test_ct_zero(self, capsys):
        assert main(["gen", "ct", "--degree", "0"]) == 0
        assert "numerator: r" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["gen", "todd", "--degree", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "1"
        assert payload["numerator"] == "1/1 c2^1\n1/1 c1^2"

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["gen", "todd"]) == 2

    def test_degree_guard(self, capsys):
        assert main(["gen", "todd", "--degree", "14"]) == 2
        assert main(["gen", "todd", "--degree", "13", "--max-degree", "13"]) == 0

    def test_bernoulli(self, capsys):
        assert main(["gen", "bernoulli", "--n", "4"]) == 0
        assert capsys.readouterr().out.strip() == "B_4 = -1/30"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["tm", "--m", "4"],
                '{"schema": "1", "kind": "tm", "m": 4, "value": "720", '
                '"factorization": {"2": 4, "3": 2, "5": 1}}',
            ),
            (
                ["D", "--g", "3"],
                '{"schema": "1", "kind": "D", "g": 3, "value": "252", '
                '"factorization": {"2": 2, "3": 2, "7": 1}}',
            ),
            (
                ["L", "--n", "3"],
                '{"schema": "1", "kind": "L", "n": 3, "value": "2", '
                '"factorization": {"2": 1}}',
            ),
        ],
    )
    def test_factored_number_json(self, argv, expected, capsys):
        assert main(["gen", *argv, "--json"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["todd", "--degree", "3"],
            ["ch", "--degree", "3"],
            ["ct", "--degree", "3"],
            ["q", "--degree", "3"],
            ["toddinv", "--degree", "4", "--rank", "2"],
        ],
    )
    @pytest.mark.parametrize("flags,suffix", [([], "txt"), (["--json"], "json")])
    def test_universal_class_output_is_pinned(self, argv, flags, suffix, capsys):
        # the whole stdout, byte for byte: gen_<kind>_<degree>[_<rank>].<txt|json>
        name = "_".join(["gen", argv[0], *argv[2::2]])
        assert main(["gen", *argv, *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.{suffix}").read_text()

    @pytest.mark.parametrize(
        "kind,flag",
        [("tm", "--m"), ("D", "--g"), ("L", "--n"), ("bernoulli", "--n")]
        + [(kind, "--degree") for kind in series.UNIVERSAL_CLASSES],
    )
    def test_factored_number_needs_its_flag(self, kind, flag, monkeypatch, capsys):
        # every kind names the index flag it reads, before anything is built
        calls = spy_generators(monkeypatch)
        assert main(["gen", kind]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag} is required for {kind}\n"
        assert calls == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["todd", "--degree", "3", "--rank", "2"], "--rank"),
            (["bernoulli", "--n", "4", "--g", "3"], "--g"),
            (["tm", "--m", "4", "--degree", "3"], "--degree"),
            (["tm", "--m", "4", "--max-degree", "13"], "--max-degree"),
        ],
    )
    def test_flag_the_kind_does_not_read_is_refused(self, argv, flag, capsys):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} not used by gen {argv[0]}" in err


@functools.cache
def series_identities_lines() -> dict[str, str]:
    """Each identity's line of `verify series-identities`, at its default degree."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "series-identities"]) == 0
    return {json.loads(line)["identity"]: line for line in out.getvalue().splitlines()}


class TestVerify:
    @pytest.mark.parametrize("identity", sorted(cli.IDENTITY_CHECKS))
    def test_an_identity_prints_its_series_identities_line(self, identity, capsys):
        # verify <identity> runs as series-identities runs it, at the same default degree
        expected = series_identities_lines()[identity]
        assert main(["verify", identity]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_single_instance_p2(self, capsys):
        code = main(
            [
                "verify",
                "main-theorem",
                "--geometry",
                "P(trivial 3) over point",
                "--sheaf",
                "O(h)",
                "-n",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["lhs"] == "36/1" and first["rhs"] == "36/1"
        assert first["schema"] == "1"

    @pytest.mark.parametrize(
        "target,spec,falsified",
        [
            ("series-identities", "ch:2:0:1/2", {"chern-multiplicativity", "divisor-todd-vs-ct",
                                                 "top-chern-from-wedges"}),
            ("chern-multiplicativity", "ch:2:0:1/2", {"chern-multiplicativity"}),
            # each class an identity reads falsifies it: a shared setup that
            # stopped reading one would leave its identity passing
            ("series-identities", "todd:2:0:1/2", {"divisor-todd-vs-ct",
                                                   "immersion-todd-decomposition",
                                                   "todd-additivity",
                                                   "todd-restriction-substitution"}),
            ("series-identities", "ct:2:0:1/2", {"divisor-todd-vs-ct"}),
            ("series-identities", "q:2:0:1/2", {"divisor-todd-vs-ct"}),
            ("series-identities", "toddinv:3:0:1/2", {"immersion-todd-decomposition"}),
            # howe_claims and the suite both name a report by howe_instance
            ("projective-bundle", "todd:2:0:1/2", {"bundle-series-reduction"}),
        ],
    )
    def test_failed_series_identities_name_the_passing_instances(
        self, target, spec, falsified, capsys
    ):
        # the check, the suite and a single-identity query name a report
        # through one formatter per identity, so a falsified check carries
        # the instance of its passing report
        assert main(["verify", target]) == 0
        lines = map(json.loads, capsys.readouterr().out.splitlines())
        clean = {(r["identity"], r["instance"]) for r in lines}
        assert main(["verify", target, "--mutate", spec]) == 1
        lines = map(json.loads, capsys.readouterr().out.splitlines())
        failed = {(r["identity"], r["instance"]) for r in lines if r["verdict"] == "fail"}
        assert {identity for identity, _ in failed} == falsified
        assert failed <= clean

    @pytest.mark.parametrize(
        "suite,spec,code,failed",
        [
            # ct_2's r*c1^2 and ct_4's r*c1^4 are the K^2 and K^4 coefficients
            ("kappa", "ct:2:4:1", 1, {"n=1"}),
            ("kappa", "ct:4:17:1", 1, {"n=3"}),
            # a non-integral ct_2 fails the one instance that reads it
            ("kappa", "ct:2:0:1/2", 1, {"n=1"}),
            # r*c2 is zero on a curve, so no report reads it
            ("kappa", "ct:2:3:1", 0, set()),
            # ct_3's r*c1*c2 feeds w*c2f and cp1^3 feeds w^3 at every twist m >= 1
            ("surface-det", "ct:3:7:1", 1, {f"m={m}" for m in range(1, 7)}),
            ("surface-det", "ct:3:2:1", 1, {f"m={m}" for m in range(1, 7)}),
        ],
    )
    def test_formal_corollaries_fail_where_the_mutated_term_is_read(
        self, suite, spec, code, failed, capsys
    ):
        # f_* on a formal fibration is a coefficient of the fiber
        # polynomial, so a mutated term of ct fails exactly the instances
        # whose coefficient it enters
        assert main(["verify", suite, "--mutate", spec]) == code
        lines = map(json.loads, capsys.readouterr().out.splitlines())
        assert {r["instance"] for r in lines if r["verdict"] == "fail"} == failed

    def test_suite_exit_zero(self, capsys):
        assert main(["verify", "kappa"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    def test_single_identity(self, capsys):
        assert main(["verify", "exp-sum-product", "--max-degree", "5"]) == 0

    def test_unknown_suite(self, capsys):
        assert main(["verify", "not-a-suite"]) == 2

    def test_bad_geometry_is_usage_error(self, capsys):
        code = main(
            ["verify", "main-theorem", "--geometry", "P(trivial 3) over", "-n", "0"]
        )
        assert code == 2

    def test_scope_error_is_usage_error(self, capsys):
        code = main(
            [
                "verify",
                "main-theorem",
                "--geometry",
                "P([0, zz]) over (P(trivial 2) over point)",
                "-n",
                "0",
            ]
        )
        assert code == 2

    def test_dimension_guard(self, capsys):
        code = main(
            ["verify", "main-theorem", "--geometry", "P(trivial 8) over point", "-n", "0"]
        )
        assert code == 2
        code = main(
            [
                "verify",
                "main-theorem",
                "--geometry",
                "P(trivial 8) over point",
                "-n",
                "0",
                "--max-dim",
                "7",
            ]
        )
        assert code == 0

    def test_dimension_guard_runs_before_the_build(self, monkeypatch, capsys):
        def build(ast):
            raise AssertionError("the tower was built before the guard")

        monkeypatch.setattr(cli, "build_geometry", build)
        code = main(
            ["verify", "main-theorem", "--geometry", "P(trivial 30) over point", "-n", "0"]
        )
        assert code == 2
        assert "geometry dimension 29 exceeds the guard 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--base-levels", "5"], "base levels 5 outside 0..1"),
            (["-n", "-1"], "argument -n: expected an integer >= 0, got '-1'"),
            (["--cut", "h"] * 3, "more cuts (3) than the geometry dimension 2"),
            (["--base-levels", "-1"], "argument --base-levels: expected an integer >= 0, got '-1'"),
            (["--max-dim", "-1"], "argument --max-dim: expected an integer >= 0, got '-1'"),
        ],
        ids=["base-levels", "negative-n", "three-cuts", "negative-base-levels", "negative-max-dim"],
    )
    def test_query_guards_run_before_the_build(self, monkeypatch, capsys, flags, error):
        # this sheaf takes seconds to build, and each flag is refused from
        # the parsed geometry before any tower or sheaf is built
        def build(*args):
            raise AssertionError("the tower or the sheaf was built before the guard")

        monkeypatch.setattr(cli, "build_geometry", build)
        monkeypatch.setattr(suites, "evaluate_class", build)
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--sheaf", "sym(400, O(h)+O(2*h)+O(3*h)+O(4*h))"]
        assert main(argv + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: {error}\n")

    def test_a_zero_cut_is_refused_before_the_sheaf(self, monkeypatch, capsys):
        # the cut is read on the built tower; the sheaf is never evaluated
        def evaluate(*args):
            raise AssertionError("the sheaf was evaluated before the cut was refused")

        monkeypatch.setattr(suites, "evaluate_class", evaluate)
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--sheaf", "sym(400, O(h)+O(2*h)+O(3*h)+O(4*h))", "--cut", "2*h-h-h"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: --cut '2*h-h-h' is the zero divisor\n")

    def test_queries_on_one_geometry_share_its_tower(self, monkeypatch, capsys):
        # a process builds one tower per level list; a mutated query between
        # clean ones leaves the clean stream as it was, and so does a fresh
        # table, as in a new process
        scopes = []

        def build(ast):
            scopes.append(specparse.build_geometry(ast))
            return scopes[-1]

        monkeypatch.setattr(cli, "build_geometry", build)
        # at n = 0 the source side reads ct_2 on P2
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--sheaf", "O(h)", "-n", "0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert scopes[0].tower is scopes[1].tower
        assert main(argv + ["--mutate", "ct:2:0:1/2"]) == 1
        capsys.readouterr()
        assert scopes[2].tower is scopes[0].tower
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        geometry._towers.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert scopes[4].tower is not scopes[0].tower

    def test_codimension_guard_runs_before_the_build(self, monkeypatch, capsys):
        # every n above dim S + 1 is vacuous; ct_22 alone takes seconds
        def ct(m):
            raise AssertionError("a universal class was built before the guard")

        monkeypatch.setattr(grr, "universal_ct", ct)
        code = main(
            ["verify", "main-theorem", "--geometry", "P(trivial 2) over point", "-n", "22"]
        )
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "codimension 22 exceeds the guard 7" in err

    def test_codimension_guard_follows_max_dim(self, capsys):
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 2) over point"]
        assert main(argv + ["--max-dim", "1", "-n", "2"]) == 0
        capsys.readouterr()
        assert main(argv + ["--max-dim", "1", "-n", "3"]) == 2
        assert capsys.readouterr().out == ""

    def test_alias_spelled_as_another_levels_name_is_usage_error(self, capsys):
        # "as xi2" on level 1 once made O(xi2) read as O(xi1): lhs 2/1
        argv = ["verify", "main-theorem", "--sheaf", "O(xi2)", "--base-levels", "1", "-n", "0"]
        aliased = "P(trivial 2) over P(trivial 2) as xi2 over point"
        assert main(argv + ["--geometry", aliased]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "alias 'xi2'" in err
        plain = "P(trivial 2) over P(trivial 2) over point"
        assert main(argv + ["--geometry", plain]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["lhs"] == "4/1"

    def test_large_symmetric_power(self, capsys):
        # the pushed class has multiplicities of order binom(62, 2); the
        # total Chern class must not take time linear in them
        code = main(
            [
                "verify",
                "main-theorem",
                "--geometry",
                "P(trivial 3) over point",
                "--sheaf",
                "sym(60, O(h)+O(h)+O(h))",
                "-n",
                "1",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    @pytest.mark.parametrize("sheaf", ["sym(2000, O(h)+O(h)+O(h))", "wedge(2, O(h) - O)"])
    def test_lambda_operations_of_any_class(self, sheaf, capsys):
        # one symbol's Sym^2000 is a single binomial coefficient, and the
        # exterior powers of a virtual class are defined
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--sheaf", sheaf]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 12
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    @pytest.mark.parametrize("a", [100000, -100000])
    def test_large_twist(self, a, capsys):
        # pi_* O(a*h) is one symmetric power read in closed form, not a
        # banding quadratic in a
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--sheaf", f"O({a}*h)", "-n", "1"]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    def test_cut_instance(self, capsys):
        code = main(
            [
                "verify",
                "main-theorem",
                "--geometry",
                "P(trivial 4) over point",
                "--cut",
                "h",
                "-n",
                "0",
            ]
        )
        assert code == 0

    def test_dash_led_cut_value(self, capsys):
        argv = ["verify", "main-theorem", "--geometry",
                "P(trivial 3) over P(trivial 2) over point", "--base-levels", "1",
                "--sheaf", "O(xi2)", "-n", "1"]
        assert main(argv + ["--cut", "-3*xi1"]) == 0
        spaced = capsys.readouterr().out
        assert main(argv + ["--cut=-3*xi1"]) == 0
        assert capsys.readouterr().out == spaced
        assert json.loads(spaced.splitlines()[0])["lhs"] == "-108/1 xi1^1"

    def test_base_levels_out_of_range(self, capsys):
        # a negative value is argparse's to refuse (RANGE_ERRORS)
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--base-levels", "5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: base levels 5 outside 0..1\n"

    def test_determinism_two_runs(self, capsys):
        main(["verify", "surface-det"])
        first = capsys.readouterr().out
        main(["verify", "surface-det"])
        second = capsys.readouterr().out
        assert first == second and first

    def test_mutation_exit_one_with_location(self, capsys):
        code = main(
            ["verify", "integrality", "--max-degree", "5", "--mutate", "todd:4:0:1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        failures = [
            json.loads(line) for line in out.splitlines() if '"fail"' in line
        ]
        assert failures and all(f["discrepancy"] for f in failures)

    def test_mutation_does_not_leak(self, capsys):
        main(["verify", "integrality", "--max-degree", "5", "--mutate", "todd:4:0:1"])
        capsys.readouterr()
        assert main(["verify", "integrality", "--max-degree", "5"]) == 0

    def test_a_mutation_no_check_builds_is_noted(self, capsys):
        # Td_9 lies past --max-degree 3, so no check builds it: the stream and
        # the exit code are the clean run's, and one stderr line says so
        argv = ["verify", "integrality", "--max-degree", "3"]
        assert main(argv) == 0
        clean = capsys.readouterr()
        assert main(argv + ["--mutate", "todd:9:0:1"]) == 0
        unread = capsys.readouterr()
        assert unread.out == clean.out
        assert unread.err == (
            "note: no check built todd of degree 9, so --mutate todd:9:0:1 changed nothing\n"
        )
        # read, whether built or memoized by an earlier run of this process
        for _ in range(2):
            assert main(argv + ["--mutate", "todd:3:0:1"]) == 1
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("spec", ["foo:1:0:1", "todd:-1:0:1", "todd:1:-1:1"])
    def test_bad_mutation_is_a_usage_error(self, spec, capsys):
        assert main(["verify", "kappa", "--mutate", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert spec in captured.err
        if spec.startswith("foo"):
            assert "known: todd, ch, ct, q, toddinv" in captured.err

    def test_fractional_mutation_exit_one(self, capsys):
        # the mutated Td_4 fails its integrality check while it is built, so
        # it is never memoized, yet it was read: no note
        for _ in range(2):
            code = main(
                ["verify", "integrality", "--max-degree", "5", "--mutate", "todd:4:0:1/2"]
            )
            assert code == 1
            assert capsys.readouterr().err == ""

    def test_fractional_ct_mutation_above_the_dimension_exit_one(self, capsys):
        # ct_2 on P1 is zero above the dimension, but the mutated class is
        # still built first, so its integrality failure is reported, under
        # the instance it falsified
        code = main(
            [
                "verify", "main-theorem", "--geometry", "P(trivial 2) over point",
                "--sheaf", "O(xi1)", "--base-levels", "0", "-n", "1",
                "--mutate", "ct:2:0:1/2",
            ]
        )
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert (code, captured.err) == (1, "")
        assert [(r["identity"], r["instance"], r["verdict"]) for r in lines] == [
            ("main-theorem", "P(trivial 2) over point/sheaf=O(xi1)/n=1", "fail")
        ]
        assert lines[0]["discrepancy"].startswith("integrality:ct degree 2: ct: ")

    def test_falsified_n_keeps_the_other_n(self, capsys):
        # without -n the query runs n = 0..3, each as its own check: the
        # mutated ct_2 falsifies n = 1 and 2, one failed report each under its
        # own instance, naming the class that failed, and the reports of n = 0
        # and 3 still print
        code = main(
            [
                "verify", "main-theorem", "--geometry", "P(trivial 2) over point",
                "--mutate", "ct:2:0:1/2",
            ]
        )
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert (code, captured.err) == (1, "")
        passing = {(r["identity"], r["instance"]) for r in lines if r["verdict"] == "pass"}
        assert passing == {
            (identity, f"P(trivial 2) over point/sheaf=O/n={n}")
            for identity in ("main-theorem", "main-theorem-corollary",
                             "main-theorem-decomposition")
            for n in (0, 3)
        }
        failed = [r for r in lines if r["verdict"] == "fail"]
        assert [(r["identity"], r["instance"]) for r in failed] == [
            ("main-theorem", f"P(trivial 2) over point/sheaf=O/n={n}") for n in (1, 2)
        ]
        assert all(r["discrepancy"].startswith("integrality:ct degree 2: ct: ") for r in failed)

    @pytest.mark.parametrize("mutation", ["", "ct:2:0:1/2", "ch:2:0:1/2", "todd:2:0:1/2", "ct:3:0:1/2"])
    def test_above_the_base_dimension_is_pinned(self, mutation, capsys):
        # n = 2 over P1: every side is zero, yet each class the full path
        # reads is still read in its order, so a mutation fails the same way
        pinned = json.loads((GOLDEN / "main_theorem_above_base.json").read_text())[mutation]
        argv = [
            "verify", "main-theorem", "--geometry", "P(trivial 2) over P(trivial 2) over point",
            "--base-levels", "1", "--sheaf", "O(xi2) + O(-xi1)", "-n", "2",
        ]
        code = main(argv + (["--mutate", mutation] if mutation else []))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (pinned["exit"], pinned["stdout"], "")

    @pytest.mark.parametrize(
        "suite, spec", [("divisor-calculus", "q:2:0:1"), ("immersion", "toddinv:3:0:1")]
    )
    def test_q_and_toddinv_mutations_turn_their_suite_red(self, suite, spec, capsys):
        # an integral wrong coefficient of Q_2 or of the inverse Todd
        # numerator of degree 3 is caught by the geometry suite that reads it
        assert main(["verify", suite, "--mutate", spec]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(r["verdict"] == "fail" for r in lines)

    @pytest.mark.parametrize("kind", ["todd", "ch", "ct", "q", "toddinv"])
    def test_every_falsification_names_the_suite_instance(self, kind, capsys):
        # the gate names a failure by the instance the integrality suite
        # runs, so its own reports carry no lead naming another claim, and a
        # class that reads it fails under its own clean instance, led by it:
        # ct_3, ct_4 and Q_4 read Td_3, and ct_3 and ct_4 read ch_3
        readers = {"todd": ["ct", "ct", "q"], "ch": ["ct", "ct"]}.get(kind, [])
        argv = ["verify", "integrality", "--max-degree", "6"]
        assert main(argv) == 0
        clean = {
            (r["identity"], r["instance"])
            for r in map(json.loads, capsys.readouterr().out.splitlines())
        }
        assert main(argv + ["--mutate", f"{kind}:3:0:1/2"]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        failed = [r for r in lines if r["verdict"] == "fail"]
        own = [r for r in failed if r["identity"] == f"integrality:{kind}"]
        others = [r for r in failed if r["identity"] != f"integrality:{kind}"]
        ranks = [f" rank {r}" for r in (1, 2, 3)] if kind == "toddinv" else [""]
        assert [r["instance"] for r in own] == [f"degree 3{rank}" for rank in ranks]
        assert all(r["discrepancy"].startswith(f"{kind}: numerator coefficient ") for r in own)
        assert [r["identity"] for r in others] == [f"integrality:{k}" for k in readers]
        assert all((r["identity"], r["instance"]) in clean for r in others)
        lead = f"integrality:{kind} degree 3: {kind}: numerator coefficient "
        assert all(r["discrepancy"].startswith(lead) for r in others)

    def test_timing_flag_adds_millis(self, capsys):
        main(["verify", "surface-det", "--timing"])
        lines = capsys.readouterr().out.splitlines()
        values = [json.loads(line)["millis"] for line in lines]
        assert any(v is not None for v in values)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "integrality", "--max-degree", "3"],
            ["verify", "exp-sum-product", "--max-degree", "3"],
            ["verify", "main-theorem", "--geometry", "P(trivial 3) over point"],
            ["verify", "number-theory"],
            ["verify", "projective-bundle"],
        ],
    )
    def test_timing_stamps_every_report(self, argv, capsys):
        assert main(argv + ["--timing"]) == 0
        values = [json.loads(line)["millis"] for line in capsys.readouterr().out.splitlines()]
        assert len(values) >= 1
        assert all(type(v) is int and v >= 0 for v in values), values

    def test_timing_stamps_the_binomial_oracle_reports(self):
        reports = suite_main_theorem()
        assert any(r.identity == "euler-binomial-oracle" for r in reports)
        assert all(type(r.millis) is int for r in reports)


    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "kappa", "--max-degree", "3"],
            ["verify", "all", "--max-degree", "4"],
            ["verify", "main-theorem", "--sheaf", "O(h)"],
            ["verify", "main-theorem", "--cut", "h"],
            ["verify", "main-theorem", "-n", "0"],
            ["verify", "main-theorem", "--base-levels", "1"],
            ["verify", "main-theorem", "--max-dim", "7"],
            ["verify", "kappa", "--geometry", "P(trivial 3) over point"],
            ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
             "--max-degree", "3"],
        ],
    )
    def test_ignored_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "not used by verify" in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every main call of a process."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_cut_does_not_leak_into_the_next_call(self, capsys):
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 4) over point", "-n", "0"]
        assert main(argv + ["--cut", "h"]) == 0
        with_cut = capsys.readouterr().out
        # a leaked --cut would make this a usage error
        assert main(["verify", "number-theory"]) == 0
        assert main(argv) == 0
        without_cut = capsys.readouterr().out.splitlines()[-3:]
        assert with_cut.splitlines() != without_cut
        assert cli._build_parser().parse_args(argv).cut == []

    def test_help_exits_zero_on_every_call(self, capsys):
        for argv in (["--help"], ["verify", "--help"], ["--help"]):
            assert main(argv) == 0
        assert "usage: grrcheck" in capsys.readouterr().out

    def test_defaults_the_benchmark_reads(self):
        args = cli._build_parser().parse_args(["verify", "main-theorem"])
        assert (args.max_dim, args.base_levels, args.cut) == (cli.DEFAULT_MAX_DIM, 0, [])
        assert (args.n, args.geometry, args.sheaf, args.max_degree) == (None,) * 4
        assert not args.timing and args.mutate is None


def _divisor_text(draw, names):
    """A random divisor over the given level names, "0" when it is zero."""
    text = ""
    for name in names:
        c = draw(st.integers(-2, 2))
        if c:
            sign = "-" if c < 0 else ("+" if text else "")
            text += f" {sign} " if text else sign
            text += name if abs(c) == 1 else f"{abs(c)}*{name}"
    return text or "0"


def _class_text(draw, names, depth):
    """A random class expression: line bundles, sums, virtual differences,
    dual, wedge, sym and twist, nested at most depth deep."""
    kinds = ["O", "+", "-", "dual", "wedge", "sym", "twist"] if depth else ["O"]
    kind = draw(st.sampled_from(kinds))
    if kind == "O":
        return draw(st.sampled_from(["O", f"O({_divisor_text(draw, names)})"]))
    inner = _class_text(draw, names, depth - 1)
    if kind in "+-":
        return f"{inner} {kind} ({_class_text(draw, names, depth - 1)})"
    if kind == "dual":
        return f"dual({inner})"
    if kind == "twist":
        return f"twist({_divisor_text(draw, names)}, {inner})"
    return f"{kind}({draw(st.integers(0, 3))}, {inner})"


def _stressed_class_text(draw, names):
    """A random class text as it is, nested up to 150 levels deep in
    brackets or dual(...), or as one term of a flat sum of up to 2,000 line
    bundles."""
    text = _class_text(draw, names, 2)
    shape = draw(st.sampled_from(["as is", "brackets", "dual", "long sum"]))
    depth = draw(st.integers(1, 150))
    if shape == "brackets":
        return "(" * depth + text + ")" * depth
    if shape == "dual":
        return "dual(" * depth + text + ")" * depth
    if shape == "long sum":
        lines = [f"O({_divisor_text(draw, names)})" for _ in range(draw(st.integers(1, 5)))]
        return " + ".join([text, *lines * draw(st.integers(1, 400))])
    return text


@st.composite
def single_instance_queries(draw):
    """The argv of a random main-theorem query: a tower of one to three
    levels and dimension at most 5, trivial or twisted levels, a random
    class (deeply nested or a long sum at times), up to two cuts, a random
    base and n <= 3."""
    levels, dim = [], 0
    for k in range(1, draw(st.integers(1, 3)) + 1):
        rank = draw(st.integers(0, min(3, 5 - dim)))
        dim += rank
        below = [f"xi{i}" for i in range(1, k)]
        if below and draw(st.booleans()):
            bundle = "[" + ", ".join(_divisor_text(draw, below) for _ in range(rank + 1)) + "]"
        else:
            bundle = f"trivial {rank + 1}"
        levels.append(f"P({bundle}) over ")
    names = [f"xi{i}" for i in range(1, len(levels) + 1)]
    argv = ["verify", "main-theorem", "--geometry", "".join(reversed(levels)) + "point"]
    argv += ["--sheaf", _stressed_class_text(draw, names)]
    argv += ["--base-levels", str(draw(st.integers(0, len(levels))))]
    argv += ["-n", str(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--cut", _divisor_text(draw, names)]
    return argv


class TestExitCodes:
    def test_closed_stdout_exits_three_quietly(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["verify", "exp-sum-product", "--max-degree", "3"]) == 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "error,code,message",
        [
            (AssertionError("invariant broken"), 3, "invariant broken"),
            (KeyError("simulated"), 3, "KeyError: 'simulated'"),
            (FalsificationError("claim broken"), 1, None),
        ],
    )
    def test_engine_error_exit_code(self, monkeypatch, capsys, error, code, message):
        def engine(*args):
            raise error

        monkeypatch.setattr(suites, "check_main_theorem", engine)
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point", "-n", "0"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert (out, err) == ("", f"internal error: {message}\n")
        else:
            assert json.loads(out)["verdict"] == "fail" and err == ""


    def test_interrupt_exits_130_without_partial_output(self, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.SUITES, "integrality", interrupted)
        assert main(["verify", "integrality", "--max-degree", "3"]) == 130
        out, err = capsys.readouterr()
        assert (out, err) == ("", "interrupted\n")

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["gen", "tm", "--m", "1750"], "error: tm value exceeds the 4300-digit limit"),
            (
                ["verify", "main-theorem", "--geometry", "P(trivial 2) over point",
                 "--sheaf", f"O({'9' * 5000}*h)", "-n", "0"],
                "error: integer of 5000 digits exceeds the 4300-digit limit (line 1, column 3)",
            ),
            (  # a literal under the limit whose class text is over it
                ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                 "--sheaf", f"O({'9' * 4000}*h)", "-n", "0"],
                "error: class text exceeds the 4300-digit limit of decimal text",
            ),
        ],
    )
    def test_past_the_int_digit_limit_is_an_input_error(self, argv, error, capsys):
        # Python refuses int <-> decimal text past 4300 digits by default
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error)

    def test_a_rank_past_the_packed_range_is_refused(self, capsys):
        # a Chow exponent stays below 2^14, so that no sum of two packed keys
        # carries: a level of rank 2^14 exits 2 before its bundle is built
        argv = ["verify", "main-theorem", "--max-dim", "20000",
                "--geometry", "P(trivial 16385) over point", "-n", "0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: level 1 has rank 16384; a rank must be below 16384\n"

    @pytest.mark.parametrize(
        "geometry,sheaf,error",
        [
            ("P(trivial 2) over point", "(" * 600 + "O(h)" + ")" * 600, "column 101"),
            ("P(trivial 2) over point", "dual(" * 2000 + "O(h)" + ")" * 2000, "column 501"),
            ("P(trivial 2) over point", "+".join(["O(h)"] * 1500), None),
            ("P(trivial 1) over " * 1200 + "point", "O", "column 1801"),
            ("(" * 1200 + "point" + ")" * 1200, "O", "column 101"),
        ],
        ids=["brackets-600", "dual-2000", "flat-sum-1500", "levels-1200", "geometry-brackets-1200"],
    )
    def test_long_or_nested_text_passes_or_is_refused(self, geometry, sheaf, error, capsys):
        # nesting past the parser's limit exits 2 at the first opener too
        # deep, before any recursion limit; a flat sum of any length passes
        argv = ["verify", "main-theorem", "--geometry", geometry, "--sheaf", sheaf, "-n", "0"]
        code = main(argv)
        out, err = capsys.readouterr()
        if error is None:
            assert (code, err) == (0, "")
            assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["pass"] * 3
        else:
            assert (code, out) == (2, "")
            assert err == f"error: nesting deeper than 100 levels (line 1, {error})\n"

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify", "kappa"], 0),
            (["verify", "kappa", "--mutate", "ct:2:0:1/2"], 1),
            (["verify", "nope"], 2),
            (["gen", "todd", "--degree", "-1"], 2),
        ],
        ids=["passing", "mutated", "unknown-suite", "negative-degree"],
    )
    def test_the_module_exits_with_the_code_of_main(self, argv, code):
        # python -m grrcheck.cli hands main's code to the process exit
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "grrcheck.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == code, run.stderr
        if code == 2:
            message = {tuple(a): m for a, m in USAGE_ERRORS + RANGE_ERRORS}[tuple(argv)]
            assert run.stdout == "" and run.stderr.endswith(f"error: {message}\n"), run.stderr
        else:
            lines = run.stdout.splitlines()
            assert len(lines) == 13 and run.stderr == ""
            assert ("fail" in {json.loads(line)["verdict"] for line in lines}) == (code == 1)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(single_instance_queries())
    def test_random_queries_pass_or_are_refused(self, argv):
        # every single-instance query exits 0 with every report passing, or
        # 2 with nothing on stdout: never 1, 3 or an uncaught exception
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, out.getvalue(), err.getvalue())
        if code == 0:
            lines = [json.loads(line) for line in out.getvalue().splitlines()]
            assert lines and all(r["verdict"] == "pass" for r in lines), argv
        else:
            assert out.getvalue() == "", argv


QUERY = ["verify", "main-theorem", "--geometry"]
P1 = "P(trivial 2) over point"
# One cli.main call per usage-error site in src: each raise of InputError,
# ParseError, ScopeError or argparse.ArgumentTypeError, and each syntax error
# the parser raises (self.error).  (argv, the last line of stderr after
# "error: ")
USAGE_ERRORS = [
    # cli
    (["gen", "todd"], "--degree is required for todd"),
    (["gen", "todd", "--degree", "13"],
     "degree 13 exceeds the guard 12; raise it with --max-degree"),
    (["gen", "toddinv", "--degree", "1", "--rank", "2"],
     "gen toddinv needs --rank <= --degree, got 2 > 1"),
    (["gen", "q", "--degree", "0"], "gen q needs --degree >= 1, got 0"),
    (["gen", "L", "--n", "0"], "gen L needs --n >= 1, got 0"),
    (["gen", "tm", "--m", "1750"], "tm value exceeds the 4300-digit limit of decimal text"),
    (["verify", "kappa", "--mutate", "todd:2:0"],
     "bad mutation spec 'todd:2:0': not enough values to unpack (expected 4, got 3)"),
    (["verify", "kappa", "--mutate", "foo:1:0:1"],
     "bad mutation spec 'foo:1:0:1': unknown kind 'foo' (known: todd, ch, ct, q, toddinv)"),
    (["verify", "kappa", "--mutate", "todd:-1:0:1"],
     "bad mutation spec 'todd:-1:0:1': degree and index must be >= 0"),
    (["verify", "kappa", "--mutate", "todd:2:0:0"],
     "bad mutation spec 'todd:2:0:0': delta must be nonzero"),
    (QUERY + ["P(trivial 8) over point"],
     "geometry dimension 7 exceeds the guard 6; raise it with --max-dim"),
    (QUERY + [P1, "-n", "8"],
     "codimension 8 exceeds the guard 7 (--max-dim + 1); raise it with --max-dim"),
    (["verify", "kappa", "--max-degree", "3"], "--max-degree not used by verify kappa"),
    (["verify", "nope"], "unknown suite or identity 'nope'; known: " + ", ".join(
        sorted({*SUITES, *cli.IDENTITY_CHECKS, "all"}))),
    (["verify", "integrality", "--max-degree", "-1"],
     "argument --max-degree: expected an integer >= 0, got '-1'"),
    (["verify", "main-theorem", "--max-dim", "20000", "--geometry",
      "P(trivial 16385) over point", "-n", "0"],
     "level 1 has rank 16384; a rank must be below 16384"),
    (QUERY + [P1, "--base-levels", "5"], "base levels 5 outside 0..1"),
    (QUERY + [P1, "--cut", "h", "--cut", "h"], "more cuts (2) than the geometry dimension 1"),
    (QUERY + [P1, "--cut", "0"], "--cut '0' is the zero divisor"),
    # poly: a literal under the int-digit limit whose class text is over it
    (QUERY + ["P(trivial 3) over point", "--sheaf", f"O({'9' * 4000}*h)", "-n", "0"],
     "class text exceeds the 4300-digit limit of decimal text"),
    # series
    (["verify", "kappa", "--mutate", "ct:2:99:1"], "mutation index 99 out of range for ct"),
    # specparse
    (QUERY + [P1 + "!"], "unexpected character '!' (line 1, column 24)"),
    (QUERY + [P1, "--sheaf", f"O({'9' * 5000}*h)"],
     "integer of 5000 digits exceeds the 4300-digit limit (line 1, column 3)"),
    (QUERY + ["P(trivial 2 over point"], "expected ')', found 'over' (line 1, column 13)"),
    (QUERY + [P1, "--sheaf", "(" * 101 + "O" + ")" * 101],
     "nesting deeper than 100 levels (line 1, column 101)"),
    (QUERY + [P1 + " point"], "trailing input 'point' (line 1, column 25)"),
    (QUERY + [P1, "--sheaf", "O(3)"],
     "an integer divisor must be 0 (write k*name for multiples) (line 1, column 3)"),
    (QUERY + ["nowhere"], "expected a geometry, found 'nowhere' (line 1, column 1)"),
    (QUERY + ["P(trivial 0) over point"],
     "trivial bundle needs at least one summand (line 1, column 11)"),
    (QUERY + [P1, "--sheaf", "E"], "expected a class expression, found 'E' (line 1, column 1)"),
    (QUERY + [P1, "--sheaf", "O(zz)"], "unknown symbol 'zz'"),
    (QUERY + ["P(trivial 2) as F over P(trivial 2) as F over point"], "alias 'F' bound twice"),
    (QUERY + ["P(trivial 2) as xi2 over point"],
     "alias 'xi2' on level 1 is another level's name"),
]
# More gen values missing or out of range, each reaching a site of
# USAGE_ERRORS again and named by its flag (the query's are in TestVerify's guard tests)
RANGE_ERRORS = [
    (["gen", "toddinv", "--degree", "3"], "--rank is required for toddinv"),
    (["gen", "bernoulli"], "--n is required for bernoulli"),
    (["gen", "tm"], "--m is required for tm"),
    (["gen", "tm", "--m", "-2"], "argument --m: expected an integer >= 0, got '-2'"),
    (["gen", "bernoulli", "--n", "-1"], "argument --n: expected an integer >= 0, got '-1'"),
    (["gen", "D", "--g", "0"], "argument --g: expected an integer >= 1, got '0'"),
    (["gen", "todd", "--degree", "-1"], "argument --degree: expected an integer >= 0, got '-1'"),
    (["gen", "ch", "--degree", "-1"], "argument --degree: expected an integer >= 0, got '-1'"),
    (["gen", "ct", "--degree", "-1"], "argument --degree: expected an integer >= 0, got '-1'"),
    (["gen", "toddinv", "--degree", "2", "--rank", "0"],
     "argument --rank: expected an integer >= 1, got '0'"),
    (["gen", "todd", "--degree", "12", "--max-degree", "3"],
     "degree 12 exceeds the guard 3; raise it with --max-degree"),
    (["gen", "toddinv", "--degree", "4", "--rank", "2", "--max-degree", "3"],
     "degree 4 exceeds the guard 3; raise it with --max-degree"),
]
# Flags typed at their default value for a target that does not read them,
# each reaching the unread-flag site of USAGE_ERRORS again: typed is given
TYPED_AT_DEFAULT = [
    (["verify", "kappa", "--max-dim", "6"], "--max-dim not used by verify kappa"),
    (["verify", "kappa", "--base-levels", "0"], "--base-levels not used by verify kappa"),
    (["gen", "tm", "--m", "4", "--max-degree", "12"], "--max-degree not used by gen tm"),
]
# a usage-error site: a raise of an error that the CLI turns into exit 2
USAGE_RAISE = re.compile(
    r"raise (InputError|ParseError|ScopeError|self\.error|argparse\.ArgumentTypeError)\("
)


class TestUsageErrors:
    """Every usage error comes from the command line: each site is reached by
    one cli.main call of USAGE_ERRORS, which exits 2 with nothing on stdout
    and the site's message on stderr."""

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS + RANGE_ERRORS + TYPED_AT_DEFAULT)
    def test_exits_two_with_its_message(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: {message}\n"), err

    @pytest.mark.parametrize(
        "argv",
        [
            argv
            for argv, message in USAGE_ERRORS + RANGE_ERRORS + TYPED_AT_DEFAULT
            if argv[0] == "gen" and "digit limit" not in message
        ],
    )
    def test_a_refused_gen_builds_nothing(self, argv, monkeypatch):
        # every gen refusal but the digit limit's, which reads the computed
        # value, comes before any universal class or arith generator is called
        calls = spy_generators(monkeypatch)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 2
        assert calls == []

    def test_every_site_is_reached_by_the_table(self):
        sites = {
            (path.name, number)
            for path in SRC.glob("*.py")
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if USAGE_RAISE.search(line)
        }
        executed = set()

        def trace(frame, event, arg):
            path = Path(frame.f_code.co_filename)
            if path.parent.resolve() != SRC:
                return None
            if event == "line":
                executed.add((path.name, frame.f_lineno))
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [main(argv) for argv, _ in USAGE_ERRORS]
        finally:
            sys.settrace(previous)
        assert codes == [2] * len(USAGE_ERRORS)
        assert len(sites) == len(USAGE_ERRORS), sorted(sites)
        assert sorted(sites - executed) == []


class TestDegreeBounds:
    """Low degrees run and pass; a negative or non-integer --max-degree is a
    usage error with nothing on stdout, in verify and in gen."""

    @pytest.mark.parametrize("degree", ["0", "1", "2"])
    @pytest.mark.parametrize("target", ["immersion-todd-decomposition", "series-identities"])
    def test_low_degree_passes(self, target, degree, capsys):
        assert main(["verify", target, "--max-degree", degree]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(json.loads(line)["verdict"] == "pass" for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "integrality", "--max-degree", "-3"],
            ["verify", "series-identities", "--max-degree", "-1"],
            ["verify", "exp-sum-product", "--max-degree", "-1"],
            ["verify", "integrality", "--max-degree", "three"],
            ["gen", "ct", "--degree", "3", "--max-degree", "-5"],
            ["gen", "tm", "--m", "4", "--max-degree", "-1"],
        ],
    )
    def test_negative_max_degree_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max-degree" in err

    @pytest.mark.parametrize(
        "degree,digest",
        [
            (0, "8f8e9a2ba8b6b162c1e1b613f6307c230a0fe4db4a9e2c50843ebcc3a26765f5"),
            (1, "10fb2ed5d3cb895fd449b049b645c8662c6d8a168da61608ad3448bb1980c7f3"),
            (2, "55d55c430601dd592153126b047238c1d7cda93e4f473b5360aea33306b32398"),
            (3, "1558e6d25256d90a67af198dae0203b5041c7867d3172be9775d339f05e8cd2c"),
            (4, "abd75611a464207da0bc2ed3df56eb06ae016e7347df4ba7ea5a98da2ce53b5b"),
            (5, "baec5961845795b3662c2b60bc6bf1e7933c5b97ab336298e9d54fc5aa6cb85a"),
            (6, "3cadc87e90eefde3c386c7b51bb45c17c4677b8502ac7b0bc47d0669b3edc5ca"),
            (7, "89839663b06440e85e893384c3c731ae6826475da786854cd1d6c00f44f681d4"),
            (10, "00ce2e36d96104674a7ae536cca94d78d5559687bcb43a51a1476aafeda44d8c"),
        ],
    )
    def test_series_identities_text_is_pinned(self, degree, digest, capsys):
        # the sha256 of each low degree's stream, so that the identities'
        # text is pinned below the degree 8 of `verify all`; at 7 the 2+2-root
        # configuration of the split-root identities joins the 3+3 one
        assert main(["verify", "series-identities", "--max-degree", str(degree)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_only_the_suites_the_cli_sizes_take_a_parameter(self):
        # --max-degree reaches integrality and series-identities; every
        # other suite has its one size
        sized = {
            name: list(inspect.signature(suite).parameters)
            for name, suite in SUITES.items()
            if inspect.signature(suite).parameters
        }
        assert sized == {
            "integrality": ["max_degree"],
            "series-identities": ["max_degree"],
        }


class TestVerifyAll:
    def test_two_runs_byte_identical_and_green(self, capsys):
        code = main(["verify", "all"])
        first = capsys.readouterr().out
        assert code == 0
        code = main(["verify", "all"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second
        assert len(first.splitlines()) > 1000
        # the stream is byte-identical to the recorded `grrcheck verify all`
        recorded = json.loads(REFERENCE.read_text())["baseline"]["verify_all"]
        assert first.count("\n") == recorded["reports"]
        assert hashlib.sha256(first.encode()).hexdigest() == recorded["sha256"]


ROWS = main_theorem_rows()


class TestCatalogueReproduction:
    """Every main-theorem row reruns as CLI queries on the row's geometry
    text, cuts and base levels: same identities, sides and verdicts; the
    instances differ only by label."""

    @pytest.fixture(scope="class")
    def suite_reports(self):
        by_instance = {}
        for rep in suite_main_theorem():
            by_instance.setdefault(rep.instance, []).append(rep)
        return by_instance

    @staticmethod
    def assert_query_reproduces(capsys, suite_reps, argv, instance):
        assert main(argv) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {line["instance"] for line in lines} == {instance}
        got = sorted((x["identity"], x["lhs"], x["rhs"], x["verdict"]) for x in lines)
        want = sorted((r.identity, r.lhs, r.rhs, r.verdict) for r in suite_reps)
        assert got == want, argv

    def test_prefix_rows_are_the_benchmark_catalogue(self):
        # the benchmark's catalogue digest file opens with sha256(repr(...)) of
        # its instances (tower name, base, twist, n), in suite order; each
        # twist is read off the row's class text, one line bundle that the
        # row's label names
        catalogue = []
        for label, text, _, base, sheaves, n_values in ROWS:
            if not label.endswith(f"->prefix{base}"):
                continue
            scope = specparse.build_geometry(specparse.parse_geometry(text))
            for sheaf_label, sheaf in sheaves:
                line = specparse.evaluate_class(specparse.parse_class(sheaf), scope)
                ((vec, multiplicity),) = line.line_terms.items()
                assert multiplicity == 1
                assert sheaf_label == "O(" + ",".join(map(str, vec)) + ")"
                name = label.removesuffix(f"->prefix{base}")
                catalogue += [(name, base, vec, n) for n in n_values]
        assert len(catalogue) == 9290
        header = CATALOGUE_DIGESTS.read_text().split()[0]
        assert hashlib.sha256(repr(catalogue).encode()).hexdigest() == header

    def test_each_sheaf_text_is_evaluated_once_per_geometry(self, monkeypatch):
        calls = []

        def evaluate(ast, scope):
            calls.append((scope.tower, ast))
            return specparse.evaluate_class(ast, scope)

        monkeypatch.setattr(suites, "evaluate_class", evaluate)
        suite_main_theorem()
        pairs = {(text, sheaf) for _, text, _, _, sheaves, _ in ROWS for _, sheaf in sheaves}
        assert len(calls) == len(set(calls)) == len(pairs) == 1147

    @pytest.mark.parametrize(
        "label, text, cuts, base, sheaves, n_values", ROWS, ids=[row[0] for row in ROWS]
    )
    def test_row(self, suite_reports, capsys, label, text, cuts, base, sheaves, n_values):
        # the row's own text as flags: four seeded sheaves of a prefix row,
        # the one sheaf of any other row
        rng = random.Random(f"reproduce:{label}")
        for sheaf_label, sheaf in rng.sample(sheaves, min(4, len(sheaves))):
            for n in n_values:
                argv = ["verify", "main-theorem", "--geometry", text, "--sheaf", sheaf,
                        "--base-levels", str(base), "-n", str(n)]
                for cut in cuts:
                    argv += ["--cut", cut]
                self.assert_query_reproduces(
                    capsys, suite_reports[f"{label}/sheaf={sheaf_label}/n={n}"], argv,
                    f"{text}/sheaf={sheaf}/n={n}",
                )

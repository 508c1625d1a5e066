import hashlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from grrcheck import cli, grr
from grrcheck.cli import main
from grrcheck.report import FalsificationError
from grrcheck.suites import MODEL_TOWERS, model_tower, suite_main_theorem
from grrcheck.series import (
    q_poly,
    todd_inverse_numerator,
    universal_chern_character,
    universal_ct,
    universal_todd,
)

GOLDEN = Path(__file__).parent / "golden"
# the benchmark's recorded reference outputs, read only
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


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

    @pytest.mark.parametrize("kind,flag", [("tm", "--m"), ("D", "--g"), ("L", "--n")])
    def test_factored_number_needs_its_flag(self, kind, flag, capsys):
        assert main(["gen", kind]) == 2
        assert f"{flag} is required for {kind}" in capsys.readouterr().err


class TestVerify:
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

    @pytest.mark.parametrize("levels", ["5", "-1"])
    def test_base_levels_out_of_range(self, levels, capsys):
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point",
                "--base-levels", levels]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: base levels {levels} outside 0..1\n"

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

    @pytest.mark.parametrize("spec", ["foo:1:0:1", "todd:-1:0:1", "todd:1:-1:1"])
    def test_bad_mutation_is_a_usage_error(self, spec, capsys):
        assert main(["verify", "kappa", "--mutate", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert spec in captured.err
        if spec.startswith("foo"):
            assert "known: todd, ch, ct, q, toddinv" in captured.err

    def test_fractional_mutation_exit_one(self, capsys):
        code = main(
            ["verify", "integrality", "--max-degree", "5", "--mutate", "todd:4:0:1/2"]
        )
        assert code == 1

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
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
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
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
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
        assert (code, capsys.readouterr().out) == (pinned["exit"], pinned["stdout"])

    def test_toddinv_falsification_names_its_rank(self, capsys):
        # the error names the instance the integrality suite runs, so the
        # discrepancy carries no lead naming another claim
        code = main(
            ["verify", "integrality", "--max-degree", "6", "--mutate", "toddinv:3:0:1/2"]
        )
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        failed = [r for r in lines if r["verdict"] == "fail"]
        assert code == 1
        assert [(r["identity"], r["instance"]) for r in failed] == [
            ("integrality:toddinv", f"degree 3 rank {r}") for r in (1, 2, 3)
        ]
        assert all(r["discrepancy"].startswith("toddinv: numerator coefficient ") for r in failed)

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
        reports = suite_main_theorem(coefficient_bound=0)
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


class TestExitCodes:
    def test_closed_stdout_exits_three_quietly(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["verify", "exp-sum-product", "--max-degree", "3"]) == 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "error,code",
        [(AssertionError("invariant broken"), 3), (FalsificationError("claim broken"), 1)],
    )
    def test_engine_error_exit_code(self, monkeypatch, capsys, error, code):
        def engine(*args):
            raise error

        monkeypatch.setattr(cli, "check_main_theorem", engine)
        argv = ["verify", "main-theorem", "--geometry", "P(trivial 3) over point", "-n", "0"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert (out, err) == ("", "internal error: invariant broken\n")
        else:
            assert json.loads(out)["verdict"] == "fail" and err == ""


    def test_interrupt_exits_130_without_partial_output(self, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.SUITES, "integrality", interrupted)
        assert main(["verify", "integrality", "--max-degree", "3"]) == 130
        out, err = capsys.readouterr()
        assert (out, err) == ("", "interrupted\n")


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


def _twist_text(coeffs) -> str:
    """O(a*xi1+...) for a twist vector, as `--sheaf` reads it."""
    terms = "".join(f"{'-' if a < 0 else '+'}{abs(a)}*xi{k}" for k, a in enumerate(coeffs, 1))
    return f"O({terms.lstrip('+')})"


class TestCatalogueReproduction:
    """Every catalogue report reruns as one CLI query on the entry's geometry
    text: same identities, sides and verdicts; the instances differ only by
    label."""

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

    @pytest.mark.parametrize(
        "name, text, bases", MODEL_TOWERS, ids=[name for name, _, _ in MODEL_TOWERS]
    )
    def test_catalogue_tower(self, suite_reports, capsys, name, text, bases):
        n_levels = model_tower(name).n_levels
        for base in bases:
            rng = random.Random(f"reproduce:{name}:{base}")
            for coeffs in rng.sample(list(product(range(-2, 3), repeat=n_levels)), 4):
                label = "O(" + ",".join(map(str, coeffs)) + ")"
                prefix = f"{name}->prefix{base}/sheaf={label}/n="
                n_values = [int(k[len(prefix):]) for k in suite_reports if k.startswith(prefix)]
                assert n_values
                sheaf = _twist_text(coeffs)
                for n in n_values:
                    argv = ["verify", "main-theorem", "--geometry", text, "--sheaf", sheaf,
                            "--base-levels", str(base), "-n", str(n)]
                    self.assert_query_reproduces(
                        capsys, suite_reports[f"{prefix}{n}"], argv, f"{text}/sheaf={sheaf}/n={n}"
                    )

    @pytest.mark.parametrize(
        "label, sheaf, cut",
        [("hyperplane-in-P3;P2->P3/sheaf=O", "O", "xi1"),
         ("bidegree-hyperplane-in-P3;P2->P3/sheaf=O(1,0)", "O(xi1)", "xi1 + xi2")],
    )
    def test_cut_out_source(self, suite_reports, capsys, label, sheaf, cut):
        text = "P(trivial 3) over P(trivial 4) over point"
        for n in range(0, 3):
            argv = ["verify", "main-theorem", "--geometry", text, "--sheaf", sheaf,
                    "--base-levels", "1", "-n", str(n), "--cut", cut]
            self.assert_query_reproduces(
                capsys, suite_reports[f"{label}/n={n}"], argv, f"{text}/sheaf={sheaf}/n={n}"
            )

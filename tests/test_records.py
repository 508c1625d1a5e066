"""Value semantics of the package's record types.

Parser nodes, complete intersections, factored integers, mutations and
reports compare by type and fields; universal classes by identity.  Parse
error positions are pinned on multi-line texts.
"""

from fractions import Fraction

import pytest

from grrcheck import series
from grrcheck.arith import FactoredInteger
from grrcheck.geometry import VirtualCompleteIntersection
from grrcheck.report import VerificationReport
from grrcheck.series import Mutation, UniversalClass, set_mutation, universal_todd
from grrcheck.specparse import (
    ClassDual,
    ClassO,
    ClassSym,
    ClassWedge,
    DivisorExpr,
    ParseError,
    build_geometry,
    parse_class,
    parse_geometry,
)


class TestParserNodes:
    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_class, "twist(2*h - xi1, wedge(2, O(h) + dual(O(-h))) - sym(3, O))"),
            (parse_geometry, "P([0, h]) as F over (P(trivial 3) over point)"),
        ],
    )
    def test_equal_nodes_are_equal_and_hash_alike(self, parse, text):
        first, second = parse(text), parse(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_node_types_with_equal_fields_differ(self):
        x = ClassO(DivisorExpr(((1, "h"),)))
        assert ClassWedge(2, x) != ClassSym(2, x)
        assert ClassDual(x) != ClassO(x)
        assert ClassWedge(2, x) == ClassWedge(2, ClassO(DivisorExpr(((1, "h"),))))
        assert ClassWedge(2, x) != ClassWedge(3, x)

    def test_repr_names_the_fields(self):
        assert repr(parse_class("dual(O)")) == "ClassDual(inner=ClassO(divisor=None))"


class TestParseErrorPositions:
    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("P(trivial 2)\n  over P([0, h])\n  over ?point", "unexpected character '?'", 3, 8),
            ("P([0,\n\th - 2*xi1]) as 7 over point", "expected 'name', found '7'", 2, 17),
            ("P(trivial 2)\r\n\tover P(trivial 3) over\n\n   point %",
             "unexpected character '%'", 4, 10),
            ("P([0,\n\th - 2*xi1]) over\n P(trivial 3)\n over  P",
             "expected '(', found 'end'", 4, 9),
        ],
    )
    def test_multi_line_geometry(self, text, message, line, column):
        with pytest.raises(ParseError) as info:
            parse_geometry(text)
        assert str(info.value) == f"{message} (line {line}, column {column})"
        assert (info.value.line, info.value.column) == (line, column)


class TestCompleteIntersection:
    def test_cuts_are_padded_before_comparison(self):
        tower = build_geometry(parse_geometry("P(trivial 2) over P(trivial 2) over point")).tower
        short = VirtualCompleteIntersection(tower, ((1,),))
        padded = VirtualCompleteIntersection(tower, ((1, 0),))
        assert short.cuts == ((1, 0),)
        assert short == padded and hash(short) == hash(padded)
        assert short != VirtualCompleteIntersection(tower, ((0, 1),))


class TestFactoredInteger:
    def test_equality_by_value_and_factorization(self):
        assert FactoredInteger(12, ((2, 2), (3, 1))) == FactoredInteger.from_exponents({3: 1, 2: 2})
        assert hash(FactoredInteger(12, ((2, 2), (3, 1)))) == hash(
            FactoredInteger.from_exponents({2: 2, 3: 1})
        )


class TestMutation:
    def test_an_equal_mutation_hits_the_same_memo_entry(self, monkeypatch):
        monkeypatch.setattr(series, "_CACHE", {})
        try:
            set_mutation(Mutation("todd", 4, 0, Fraction(1)))
            mutated = universal_todd(4)
            entries = len(series._CACHE)
            set_mutation(Mutation("todd", 4, 0, Fraction(1)))
            assert universal_todd(4) is mutated
            assert len(series._CACHE) == entries
            set_mutation(Mutation("todd", 4, 0, Fraction(2)))
            assert universal_todd(4) is not mutated
        finally:
            set_mutation(None)


class TestUniversalClass:
    def test_identity_equality_and_hash(self):
        todd = universal_todd(3)
        twin = UniversalClass(todd.name, todd.degree, todd.numerator, todd.scale)
        assert twin != todd and todd == todd
        assert hash(twin) == object.__hash__(twin)
        assert twin.series_part is twin.series_part
        assert twin.series_part == todd.series_part


class TestVerificationReport:
    def test_keyword_construction_and_field_equality(self):
        by_keyword = VerificationReport(
            identity="id", instance="inst", lhs="1/1", rhs="1/1", verdict="pass"
        )
        by_position = VerificationReport("id", "inst", "1/1", "1/1", "pass", None, None, None)
        assert by_keyword == by_position
        assert (by_keyword.discrepancy, by_keyword.millis, by_keyword.notes) == (None,) * 3
        by_keyword.millis = 7
        assert by_keyword != by_position
        assert by_keyword.to_json(timing=True).endswith('"millis":7}')

    def test_reports_are_unhashable(self):
        # millis is stamped after construction, so a field hash would move
        with pytest.raises(TypeError):
            hash(VerificationReport("id", "inst", "", "", "fail"))

"""Value semantics of the package's record types.

Parser nodes, complete intersections, factored integers, mutations and
reports compare by type and fields; universal classes by identity.  Every
record that only stores its fields is built by Record's one constructor.
Parse error positions are pinned on multi-line texts.
"""

from fractions import Fraction

import pytest

from grrcheck import series
from grrcheck.arith import FactoredInteger
from grrcheck.geometry import Tower, VirtualCompleteIntersection
from grrcheck.report import Record, VerificationReport
from grrcheck.series import Mutation, UniversalClass, set_mutation, universal_todd
from grrcheck.specparse import (
    ClassDual,
    ClassO,
    ClassSum,
    ClassSym,
    ClassTwist,
    ClassWedge,
    DivisorExpr,
    GeometryScope,
    GeomLevel,
    ParseError,
    SummandBundle,
    TrivialBundle,
    build_geometry,
    parse_class,
    parse_geometry,
)


def _plain_records() -> dict[type, tuple]:
    """Each record built by Record.__init__, with one value per field."""
    h, o = DivisorExpr(((1, "h"),)), ClassO(DivisorExpr(()))
    return {
        DivisorExpr: (((2, "h"), (-1, "xi2")),),
        TrivialBundle: (3,),
        SummandBundle: ((DivisorExpr(()), h),),
        GeomLevel: (TrivialBundle(2), "F"),
        ClassO: (h,),
        ClassSum: (((1, o), (-1, ClassO(h))),),
        ClassDual: (o,),
        ClassWedge: (2, o),
        ClassSym: (3, o),
        ClassTwist: (h, o),
        GeometryScope: (Tower([[(), ()]]), {"F": 1}),
        Mutation: ("ct", 2, 0, Fraction(1, 2)),
        FactoredInteger: (12, ((2, 2), (3, 1))),
    }


PLAIN_RECORDS = _plain_records()
BY_CLASS = pytest.mark.parametrize(
    "cls, values", PLAIN_RECORDS.items(), ids=[cls.__name__ for cls in PLAIN_RECORDS]
)


def _records_of_the_package() -> set[type]:
    """Every subclass of Record in grrcheck (each module that defines one is
    imported above)."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("grrcheck."):
                found.add(sub)
    return found


class TestRecordConstructor:
    def test_only_records_that_do_more_write_their_own(self):
        own = {cls for cls in _records_of_the_package() if "__init__" in vars(cls)}
        # keywords, and one assignment per field on the stream's hot path;
        # validation and padding
        assert own == {VerificationReport, VirtualCompleteIntersection}
        assert _records_of_the_package() - own == set(PLAIN_RECORDS)

    @BY_CLASS
    def test_positional_fields_in_slot_order(self, cls, values):
        record = cls(*values)
        assert len(values) == len(cls.__slots__)
        for name, value in zip(cls.__slots__, values):
            assert getattr(record, name) is value, name

    @BY_CLASS
    def test_a_wrong_count_is_a_type_error(self, cls, values):
        with pytest.raises(TypeError, match=f"{cls.__name__} takes {len(values)} fields"):
            cls(*values, None)
        with pytest.raises(TypeError, match=f"got {len(values) - 1}"):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(cls.__slots__, values)))

    @BY_CLASS
    def test_equality_hash_and_repr_from_the_fields(self, cls, values):
        first, second = cls(*values), cls(*values)
        assert first is not second and first == second
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
        assert repr(first) == f"{cls.__name__}({shown})"
        try:
            hash(values)
        except TypeError:  # a dict among the fields
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == hash(values)
        assert first != cls(*values[:-1], object())


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
        zero = "DivisorExpr(terms=())"
        assert repr(parse_class("dual(O)")) == f"ClassDual(inner=ClassO(divisor={zero}))"


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
    def test_cuts_have_one_entry_per_level(self):
        tower = build_geometry(parse_geometry("P(trivial 2) over P(trivial 2) over point")).tower
        one, same = (VirtualCompleteIntersection(tower, ((1, 0),)) for _ in "ab")
        assert one.cuts == ((1, 0),)
        assert one == same and hash(one) == hash(same)
        assert one != VirtualCompleteIntersection(tower, ((0, 1),))
        with pytest.raises(AssertionError, match="wrong arity"):
            VirtualCompleteIntersection(tower, ((1,),))


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
        twin = UniversalClass(todd.degree, todd.numerator, todd.scale)
        assert twin != todd and todd == todd
        assert hash(twin) == object.__hash__(twin)
        assert twin.series_part is twin.series_part
        assert twin.series_part == todd.series_part


class TestVerificationReport:
    def test_keyword_construction_and_field_equality(self):
        by_keyword = VerificationReport(
            identity="id", instance="inst", lhs="1/1", rhs="1/1", verdict="pass",
            discrepancy=None, millis=None, notes=None,
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
            hash(VerificationReport("id", "inst", "", "", "fail", "sides differ", None, None))

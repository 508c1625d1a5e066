import pytest

from grrcheck.arith import InputError
from grrcheck.specparse import (
    ParseError,
    ScopeError,
    build_geometry,
    evaluate_class,
    parse_class,
    parse_divisor,
    parse_geometry,
)

from spec_printers import class_text, geometry_text


class TestGeometryParsing:
    def test_point(self):
        scope = build_geometry(parse_geometry("point"))
        assert scope.tower.dim == 0

    def test_projective_plane(self):
        scope = build_geometry(parse_geometry("P(trivial 3) over point"))
        assert scope.tower.dim == 2
        assert scope.tower.ranks == (2,)

    def test_hirzebruch(self):
        scope = build_geometry(
            parse_geometry("P([0, h]) over (P(trivial 2) over point)")
        )
        t = scope.tower
        assert t.dim == 2
        assert t.levels[1] == ((0,), (1,))
        # the defining relation: xi2^2 = xi1*xi2
        xi2, xi1 = t.hyperplane(2), t.hyperplane(1)
        assert xi2 * xi2 == xi1 * xi2

    def test_alias(self):
        scope = build_geometry(
            parse_geometry("P([0, 2*y]) over (P(trivial 2) as y over point)")
        )
        assert scope.names == {"y": 1}
        assert scope.tower.levels[1] == ((0,), (2,))

    @pytest.mark.parametrize("alias", ["xi2", "ξ2", "xi3"])
    def test_alias_spelled_as_another_levels_name_rejected(self, alias):
        # "as xi2" on level 1 would make xi2 read as xi1
        text = f"P(trivial 2) over P(trivial 2) as {alias} over point"
        with pytest.raises(InputError, match="another level.s name"):
            build_geometry(parse_geometry(text))

    @pytest.mark.parametrize(
        "text, names",
        [
            ("P(trivial 2) over P(trivial 2) as xi1 over point", {"xi1": 1}),
            ("P(trivial 2) as ξ2 over P(trivial 2) over point", {"xi2": 2}),
            ("P(trivial 2) as h over P(trivial 2) over point", {"h": 2}),
        ],
    )
    def test_alias_h_and_own_name_allowed(self, text, names):
        assert build_geometry(parse_geometry(text)).names == names

    def test_unicode_hyperplane_names(self):
        scope = build_geometry(
            parse_geometry("P([0, ξ1]) over (P(trivial 2) over point)")
        )
        assert scope.tower.levels[1] == ((0,), (1,))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse_geometry("P(trivial 3) over")
        assert "line 1" in str(ei.value)

    def test_scope_error_names_symbol(self):
        with pytest.raises(ScopeError) as ei:
            build_geometry(parse_geometry("P([0, z]) over (P(trivial 2) over point)"))
        assert "z" in str(ei.value)

    def test_forward_reference_rejected(self):
        with pytest.raises(ScopeError):
            build_geometry(parse_geometry("P([0, xi2]) over (P(trivial 2) over point)"))

    def test_own_alias_not_in_scope(self):
        with pytest.raises(ScopeError):
            build_geometry(parse_geometry("P([0, y]) as y over (P(trivial 2) over point)"))

    def test_three_levels_build_one_chain(self, monkeypatch):
        from grrcheck.geometry import Tower

        builds = []
        original = Tower.__init__

        def counting_init(self, levels):
            builds.append(len(levels))
            original(self, levels)

        monkeypatch.setattr(Tower, "__init__", counting_init)
        scope = build_geometry(
            parse_geometry("P([0, xi2]) over (P([0, xi1]) over (P(trivial 2) over point))")
        )
        # the tower and its base chain, each built once
        assert sorted(builds) == [0, 1, 2, 3]
        assert scope.tower.levels[1:] == (((0,), (1,)), ((0, 0), (0, 1)))

    @pytest.mark.parametrize("name", ["xi1", "ξ1"])
    def test_error_column_counts_characters_as_typed(self, name):
        text = f"P([{name}, {name}, @]) over point"
        with pytest.raises(ParseError) as info:
            parse_geometry(text)
        assert info.value.column == text.index("@") + 1

    def test_greek_and_latin_spellings_build_the_same_tower(self):
        latin = build_geometry(parse_geometry("P([0, xi1]) over (P(trivial 2) over point)"))
        greek = build_geometry(parse_geometry("P([0, ξ1]) over (P(trivial 2) over point)"))
        assert latin.tower.levels == greek.tower.levels

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_geometry("point point")

    def test_nonzero_integer_divisor_rejected(self):
        with pytest.raises(ParseError):
            parse_divisor("3")


class TestClassParsing:
    def setup_method(self):
        self.scope = build_geometry(parse_geometry("P(trivial 3) over point"))

    def test_line_bundle(self):
        f = evaluate_class(parse_class("O(h)"), self.scope)
        assert f.line_terms == {(1,): 1}

    def test_virtual_difference(self):
        f = evaluate_class(parse_class("O - O(-h)"), self.scope)
        assert f.line_terms == {(0,): 1, (-1,): -1}

    def test_top_wedge(self):
        f = evaluate_class(parse_class("wedge(2, O + O(h))"), self.scope)
        assert f.line_terms == {(1,): 1}

    def test_sym_and_twist_and_dual(self):
        f = evaluate_class(parse_class("twist(h, sym(2, O + O(h)))"), self.scope)
        assert f.line_terms == {(1,): 1, (2,): 1, (3,): 1}
        g = evaluate_class(parse_class("dual(O(2*h))"), self.scope)
        assert g.line_terms == {(-2,): 1}

    def test_wedge_on_virtual(self):
        f = evaluate_class(parse_class("wedge(1, O - O(h))"), self.scope)
        assert f.line_terms == {(0,): 1, (1,): -1}

    def test_unknown_name(self):
        with pytest.raises(ScopeError):
            evaluate_class(parse_class("O(q)"), self.scope)

    def test_scaled_divisor(self):
        f = evaluate_class(parse_class("O(2*h - h)"), self.scope)
        assert f.line_terms == {(1,): 1}


GOLDEN_GEOMETRIES = [
    "point",
    "P(trivial 3) over point",
    "P(trivial 2) over point",
    "P([0, h]) over (P(trivial 2) over point)",
    "P([0, xi1 + xi2]) over (P([0, xi1]) over (P(trivial 2) over point))",
    "P(trivial 2) as y over point",
    "P([0, 2*y]) over (P(trivial 2) as y over point)",
]

GOLDEN_CLASSES = [
    "O",
    "O(h)",
    "O(0)",
    "O - O(-h)",
    "O(2*h) + O(h - xi2)",
    "wedge(2, O + O(h))",
    "sym(3, O + O(h))",
    "dual(O(h))",
    "twist(h, O - O(-h))",
    "O(-h)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", GOLDEN_GEOMETRIES)
    def test_geometry_round_trip(self, text):
        ast = parse_geometry(text)
        assert parse_geometry(geometry_text(ast)) == ast

    @pytest.mark.parametrize("text", GOLDEN_CLASSES)
    def test_class_round_trip(self, text):
        ast = parse_class(text)
        assert parse_class(class_text(ast)) == ast

    @pytest.mark.parametrize("text", GOLDEN_GEOMETRIES)
    def test_pretty_is_canonical_fixed_point(self, text):
        ast = parse_geometry(text)
        pretty = geometry_text(ast)
        assert geometry_text(parse_geometry(pretty)) == pretty

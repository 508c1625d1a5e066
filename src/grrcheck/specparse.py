"""Parser for the tower-geometry and class-expression languages of the CLI.

Grammar (whitespace-insensitive, LL(1)):

    geom      := "point"
               | "P(" bundle ")" ("as" NAME)? "over" geom
               | "(" geom ")"
    bundle    := "trivial" INT
               | "[" divisor ("," divisor)* "]"
    divisor   := INT                      (must be the zero divisor "0")
               | ("+"|"-")? term (("+"|"-") term)*
    term      := (INT "*")? NAME
    classexpr := classterm (("+"|"-") classterm)*
    classterm := "O" ("(" divisor ")")?
               | "dual(" classexpr ")"
               | "wedge(" INT "," classexpr ")"
               | "sym(" INT "," classexpr ")"
               | "twist(" divisor "," classexpr ")"
               | "(" classexpr ")"

Levels are numbered from the base up; the innermost geometry is level 1.
Hyperplane names are auto-generated as xi1, xi2, ... (the spelling "ξ1" is
accepted and normalized); a level's name may be aliased with "as NAME".  An
alias spelled xi<k> must sit on level k, so that no alias rebinds another
level's name.  The bare name "h" resolves to the first hyperplane when
nothing else binds it, matching the conventional usage on projective space.
Syntax errors carry line and column; scope errors name the unknown symbol.
Nesting past MAX_NESTING levels (brackets or geometry levels) is a syntax
error at the first opener too deep, before any recursion limit; a flat sum of
any length is parsed and evaluated in a loop.

A geometry parses to its GeomLevels, base first, and () is the point; a sum
to one ClassSum of its signed terms, in text order; a bare "O" to "O(0)".
The nodes are report.Record values, equal when of one node type with equal
fields, so parse(text(ast)) == ast.  Tokens are (kind, text, offset) tuples;
a syntax error works out its line and column from the offset.
"""

from __future__ import annotations

import re
import sys

from .arith import InputError
from .geometry import KClass, tower
from .report import Record

MAX_NESTING = 100  # levels of brackets or of a geometry that a text may nest


class ParseError(InputError):
    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class ScopeError(InputError):
    def __init__(self, name: str):
        super().__init__(f"unknown symbol {name!r}")


# -- AST ---------------------------------------------------------------------


class DivisorExpr(Record):
    __slots__ = ("terms",)  # ((coefficient, name), ...); () is the zero divisor


class TrivialBundle(Record):
    __slots__ = ("count",)


class SummandBundle(Record):
    __slots__ = ("divisors",)


class GeomLevel(Record):
    __slots__ = ("bundle", "alias")


GeomAST = tuple[GeomLevel, ...]  # base first; () is the point


class ClassO(Record):
    __slots__ = ("divisor",)


class ClassSum(Record):
    __slots__ = ("terms",)  # ((sign, term), ...): two or more, the first sign +1


class ClassDual(Record):
    __slots__ = ("inner",)


class ClassWedge(Record):
    __slots__ = ("index", "inner")


class ClassSym(Record):
    __slots__ = ("index", "inner")


class ClassTwist(Record):
    __slots__ = ("divisor", "inner")


ClassAST = ClassO | ClassSum | ClassDual | ClassWedge | ClassSym | ClassTwist


# -- tokenizer ---------------------------------------------------------------

# One token after any whitespace; the kind is the name of the group matched.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_ξ][A-Za-z_0-9ξ]*)|(?P<punct>[()\[\],*+\-])|(?P<end>\Z))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, kind int | name | punct, then one end."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            offset = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[offset]!r}", text, offset)
        kind = m.lastgroup
        word = m[kind]
        if kind == "int":
            try:
                int(word)
            except ValueError:  # past the interpreter's int-digit limit
                limit = sys.get_int_max_str_digits()
                message = f"integer of {len(word)} digits exceeds the {limit}-digit limit"
                raise ParseError(message, text, m.start(kind)) from None
        elif kind == "name":
            word = word.replace("ξ", "xi")  # accept the Greek spelling of xi
        tokens.append((kind, word, m.start(kind)))
        if kind == "end":
            return tokens
        pos = m.end()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok: tuple[str, str, int] | None = None) -> ParseError:
        """A ParseError at tok, by default the current token."""
        return ParseError(message, self.text, (tok or self.tokens[self.pos])[2])

    def found(self) -> str:
        return repr(self.tokens[self.pos][1] or "end")

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.error(f"expected {text or kind!r}, found {self.found()}")
        return self.advance()

    def accept(self, text: str) -> bool:
        """Consume the current token if it reads text (the kinds' texts are disjoint)."""
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def nested(self, rule, tok: tuple[str, str, int]):
        """rule's AST one nesting level below the one tok opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
        ast = rule()
        self.depth -= 1
        return ast

    def whole(self, rule):
        """The AST of the whole text under rule, a parsing method."""
        ast = rule(self)
        if self.tokens[self.pos][0] != "end":
            raise self.error(f"trailing input {self.tokens[self.pos][1]!r}")
        return ast

    # -- divisors ------------------------------------------------------

    def divisor(self) -> DivisorExpr:
        tok = self.tokens[self.pos]
        if tok[0] == "int":
            value = int(self.advance()[1])
            if self.accept("*"):
                terms = [(value, self.expect("name")[1])]
            elif value != 0:
                raise self.error(
                    "an integer divisor must be 0 (write k*name for multiples)", tok
                )
            else:
                terms = []
        else:
            sign = -1 if self.accept("-") else 1
            if sign > 0:
                self.accept("+")
            terms = [self._term(sign)]
        while self.tokens[self.pos][1] in ("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            terms.append(self._term(sign))
        return DivisorExpr(tuple(terms))

    def _term(self, sign: int) -> tuple[int, str]:
        if self.tokens[self.pos][0] == "int":
            value = int(self.advance()[1])
            self.expect("punct", "*")
            return (sign * value, self.expect("name")[1])
        return (sign, self.expect("name")[1])

    # -- geometry ------------------------------------------------------

    def geometry(self) -> GeomAST:
        tok = self.tokens[self.pos]
        if self.accept("point"):
            return ()
        if self.accept("("):
            levels = self.nested(self.geometry, tok)
            self.expect("punct", ")")
            return levels
        if self.accept("P"):
            self.expect("punct", "(")
            bundle = self._bundle()
            self.expect("punct", ")")
            alias = self.expect("name")[1] if self.accept("as") else None
            self.expect("name", "over")
            return self.nested(self.geometry, tok) + (GeomLevel(bundle, alias),)
        raise self.error(f"expected a geometry, found {self.found()}")

    def _bundle(self) -> TrivialBundle | SummandBundle:
        if self.accept("trivial"):
            tok = self.expect("int")
            count = int(tok[1])
            if count < 1:
                raise self.error("trivial bundle needs at least one summand", tok)
            return TrivialBundle(count)
        self.expect("punct", "[")
        divisors = [self.divisor()]
        while self.accept(","):
            divisors.append(self.divisor())
        self.expect("punct", "]")
        return SummandBundle(tuple(divisors))

    # -- class expressions ----------------------------------------------

    def class_expr(self) -> ClassAST:
        terms = [(1, self._class_term())]
        while self.tokens[self.pos][1] in ("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            terms.append((sign, self._class_term()))
        return ClassSum(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def _class_term(self) -> ClassAST:
        tok = self.tokens[self.pos]
        if self.accept("("):
            inner = self.nested(self.class_expr, tok)
            self.expect("punct", ")")
            return inner
        if self.accept("O"):
            if not self.accept("("):
                return ClassO(DivisorExpr(()))
            div = self.divisor()
            self.expect("punct", ")")
            return ClassO(div)
        if self.accept("dual"):
            self.expect("punct", "(")
            inner = self.nested(self.class_expr, tok)
            self.expect("punct", ")")
            return ClassDual(inner)
        for keyword, node in (("wedge", ClassWedge), ("sym", ClassSym)):
            if self.accept(keyword):
                self.expect("punct", "(")
                idx = int(self.expect("int")[1])
                self.expect("punct", ",")
                inner = self.nested(self.class_expr, tok)
                self.expect("punct", ")")
                return node(idx, inner)
        if self.accept("twist"):
            self.expect("punct", "(")
            div = self.divisor()
            self.expect("punct", ",")
            inner = self.nested(self.class_expr, tok)
            self.expect("punct", ")")
            return ClassTwist(div, inner)
        raise self.error(f"expected a class expression, found {self.found()}")


# -- public API ---------------------------------------------------------------


def parse_geometry(text: str) -> GeomAST:
    return _Parser(text).whole(_Parser.geometry)


def parse_class(text: str) -> ClassAST:
    return _Parser(text).whole(_Parser.class_expr)


def parse_divisor(text: str) -> DivisorExpr:
    return _Parser(text).whole(_Parser.divisor)


def _divisor_vector(div: DivisorExpr, names: dict[str, int], n_levels: int) -> tuple[int, ...]:
    """Coefficient vector of a divisor over n_levels levels; a name is an
    alias, xi<k> for 1 <= k <= n_levels, or h (level 1)."""
    vec = [0] * n_levels
    for coeff, name in div.terms:
        m = re.fullmatch(r"xi(\d+)", name)
        if name in names:
            level = names[name]
        elif m and 1 <= int(m.group(1)) <= n_levels:
            level = int(m.group(1))
        elif name == "h" and n_levels >= 1:
            level = 1
        else:
            raise ScopeError(name)
        vec[level - 1] += coeff
    return tuple(vec)


class GeometryScope(Record):
    __slots__ = ("tower", "names")  # names: symbol -> 1-based level

    def divisor_vector(self, div: DivisorExpr) -> tuple[int, ...]:
        return _divisor_vector(div, self.names, self.tower.n_levels)


def build_geometry(ast: GeomAST) -> GeometryScope:
    """Resolve the levels, base first, into a tower and its name scope.

    The divisors of each level resolve against the levels below it (their
    count and aliases), so the tower is read once, at the end, from
    geometry.tower: texts that name one level list share one tower.
    """
    names: dict[str, int] = {}
    levels: list[tuple[tuple[int, ...], ...]] = []
    for below, level in enumerate(ast):
        bundle = level.bundle
        if isinstance(bundle, TrivialBundle):
            levels.append(((0,) * below,) * bundle.count)
        else:
            levels.append(tuple(_divisor_vector(d, names, below) for d in bundle.divisors))
        alias = level.alias
        if alias:
            if alias in names:
                raise InputError(f"alias {alias!r} bound twice")
            m = re.fullmatch(r"xi(\d+)", alias)
            if m and int(m.group(1)) != below + 1:
                raise InputError(f"alias {alias!r} on level {below + 1} is another level's name")
            names[alias] = below + 1
    return GeometryScope(tower(tuple(levels)), names)


def geometry_shape(ast: GeomAST) -> tuple[int, ...]:
    """The rank of each level, base first, of the tower the AST describes,
    without building it: a level's rank is its summand count minus one."""
    ranks = []
    for level in ast:
        bundle = level.bundle
        count = bundle.count if isinstance(bundle, TrivialBundle) else len(bundle.divisors)
        ranks.append(count - 1)
    return tuple(ranks)


def evaluate_class(ast: ClassAST, scope: GeometryScope) -> KClass:
    """The class the AST names on the scope's tower.  A sum adds its terms
    in text order, in a loop; the other nodes recurse at most MAX_NESTING
    deep."""
    if isinstance(ast, ClassSum):
        (_, first), *rest = ast.terms
        total = evaluate_class(first, scope)
        for sign, term in rest:
            value = evaluate_class(term, scope)
            total = total + value if sign > 0 else total - value
        return total
    if isinstance(ast, ClassO):
        return scope.tower.line(scope.divisor_vector(ast.divisor))
    if isinstance(ast, ClassTwist):
        return evaluate_class(ast.inner, scope).twist(scope.divisor_vector(ast.divisor))
    if isinstance(ast, ClassDual):
        return evaluate_class(ast.inner, scope).dual()
    if isinstance(ast, ClassWedge):
        return evaluate_class(ast.inner, scope).wedge(ast.index)
    return evaluate_class(ast.inner, scope).sym(ast.index)  # ClassSym, the last node type

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
    classexpr := "O" ("(" divisor ")")?
               | classexpr ("+"|"-") classexpr
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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arith import InputError
from .geometry import KClass, Tower


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ScopeError(ValueError):
    def __init__(self, name: str, line: int = 0, column: int = 0):
        where = f" (line {line}, column {column})" if line else ""
        super().__init__(f"unknown symbol {name!r}{where}")
        self.name = name


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorExpr:
    # ((coefficient, name), ...); the empty tuple is the zero divisor
    terms: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class TrivialBundle:
    count: int


@dataclass(frozen=True)
class SummandBundle:
    divisors: tuple[DivisorExpr, ...]


@dataclass(frozen=True)
class GeomPoint:
    pass


@dataclass(frozen=True)
class GeomBundle:
    bundle: TrivialBundle | SummandBundle
    alias: str | None
    base: "GeomAST"


GeomAST = GeomPoint | GeomBundle


@dataclass(frozen=True)
class ClassO:
    divisor: DivisorExpr | None


@dataclass(frozen=True)
class ClassSum:
    left: "ClassAST"
    sign: int
    right: "ClassAST"


@dataclass(frozen=True)
class ClassDual:
    inner: "ClassAST"


@dataclass(frozen=True)
class ClassWedge:
    index: int
    inner: "ClassAST"


@dataclass(frozen=True)
class ClassSym:
    index: int
    inner: "ClassAST"


@dataclass(frozen=True)
class ClassTwist:
    divisor: DivisorExpr
    inner: "ClassAST"


ClassAST = ClassO | ClassSum | ClassDual | ClassWedge | ClassSym | ClassTwist


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?P<int>\d+)|\s*(?P<name>[A-Za-z_ξ][A-Za-z_0-9ξ]*)|\s*(?P<punct>[()\[\],*+\-])"
)


@dataclass
class Token:
    kind: str  # int | name | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        while pos < len(text) and text[pos] in " \t\r\n":
            if text[pos] == "\n":
                line += 1
                line_start = pos + 1
            pos += 1
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        column = pos - line_start + 1
        if m.lastgroup == "int":
            tokens.append(Token("int", m.group("int").strip(), line, column))
        elif m.lastgroup == "name":
            # accept the Greek spelling of xi
            tokens.append(Token("name", m.group("name").replace("ξ", "xi"), line, column))
        else:
            tokens.append(Token("punct", m.group("punct").strip(), line, column))
        pos = m.end()
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end'!r}", tok.line, tok.column)
        return self.advance()

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def done(self) -> None:
        if self.cur.kind != "end":
            raise ParseError(
                f"trailing input {self.cur.text!r}", self.cur.line, self.cur.column
            )

    # -- divisors ------------------------------------------------------

    def divisor(self) -> DivisorExpr:
        tok = self.cur
        if tok.kind == "int":
            value = int(self.advance().text)
            if self.at("punct", "*"):
                self.advance()
                name = self.expect("name").text
                terms = [(value, name)]
            else:
                if value != 0:
                    raise ParseError(
                        "an integer divisor must be 0 (write k*name for multiples)",
                        tok.line,
                        tok.column,
                    )
                terms = []
        else:
            sign = 1
            if self.at("punct", "-"):
                self.advance()
                sign = -1
            elif self.at("punct", "+"):
                self.advance()
            terms = [self._term(sign)]
        while self.at("punct", "+") or self.at("punct", "-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append(self._term(sign))
        return DivisorExpr(tuple(terms))

    def _term(self, sign: int) -> tuple[int, str]:
        if self.cur.kind == "int":
            value = int(self.advance().text)
            self.expect("punct", "*")
            name = self.expect("name").text
            return (sign * value, name)
        name = self.expect("name").text
        return (sign, name)

    # -- geometry ------------------------------------------------------

    def geometry(self) -> GeomAST:
        if self.at("name", "point"):
            self.advance()
            return GeomPoint()
        if self.at("punct", "("):
            self.advance()
            inner = self.geometry()
            self.expect("punct", ")")
            return inner
        if self.at("name", "P"):
            self.advance()
            self.expect("punct", "(")
            bundle = self._bundle()
            self.expect("punct", ")")
            alias = None
            if self.at("name", "as"):
                self.advance()
                alias = self.expect("name").text
            self.expect("name", "over")
            base = self.geometry()
            return GeomBundle(bundle, alias, base)
        tok = self.cur
        raise ParseError(
            f"expected a geometry, found {tok.text or 'end'!r}", tok.line, tok.column
        )

    def _bundle(self) -> TrivialBundle | SummandBundle:
        if self.at("name", "trivial"):
            self.advance()
            tok = self.expect("int")
            count = int(tok.text)
            if count < 1:
                raise ParseError("trivial bundle needs at least one summand", tok.line, tok.column)
            return TrivialBundle(count)
        self.expect("punct", "[")
        divisors = [self.divisor()]
        while self.at("punct", ","):
            self.advance()
            divisors.append(self.divisor())
        self.expect("punct", "]")
        return SummandBundle(tuple(divisors))

    # -- class expressions ----------------------------------------------

    def class_expr(self) -> ClassAST:
        left = self._class_atom()
        while self.at("punct", "+") or self.at("punct", "-"):
            sign = 1 if self.advance().text == "+" else -1
            right = self._class_atom()
            left = ClassSum(left, sign, right)
        return left

    def _class_atom(self) -> ClassAST:
        if self.at("punct", "("):
            self.advance()
            inner = self.class_expr()
            self.expect("punct", ")")
            return inner
        if self.at("name", "O"):
            self.advance()
            if self.at("punct", "("):
                self.advance()
                div = self.divisor()
                self.expect("punct", ")")
                return ClassO(div)
            return ClassO(None)
        for keyword, node in (("dual", ClassDual),):
            if self.at("name", keyword):
                self.advance()
                self.expect("punct", "(")
                inner = self.class_expr()
                self.expect("punct", ")")
                return node(inner)
        for keyword, node in (("wedge", ClassWedge), ("sym", ClassSym)):
            if self.at("name", keyword):
                self.advance()
                self.expect("punct", "(")
                idx = int(self.expect("int").text)
                self.expect("punct", ",")
                inner = self.class_expr()
                self.expect("punct", ")")
                return node(idx, inner)
        if self.at("name", "twist"):
            self.advance()
            self.expect("punct", "(")
            div = self.divisor()
            self.expect("punct", ",")
            inner = self.class_expr()
            self.expect("punct", ")")
            return ClassTwist(div, inner)
        tok = self.cur
        raise ParseError(
            f"expected a class expression, found {tok.text or 'end'!r}",
            tok.line,
            tok.column,
        )


# -- public API ---------------------------------------------------------------


def parse_geometry(text: str) -> GeomAST:
    parser = _Parser(text)
    ast = parser.geometry()
    parser.done()
    return ast


def parse_class(text: str) -> ClassAST:
    parser = _Parser(text)
    ast = parser.class_expr()
    parser.done()
    return ast


def parse_divisor(text: str) -> DivisorExpr:
    parser = _Parser(text)
    div = parser.divisor()
    parser.done()
    return div


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


@dataclass
class GeometryScope:
    tower: Tower
    names: dict[str, int]  # symbol -> 1-based level

    def divisor_vector(self, div: DivisorExpr) -> tuple[int, ...]:
        return _divisor_vector(div, self.names, self.tower.n_levels)


def build_geometry(ast: GeomAST) -> GeometryScope:
    """Resolve the AST bottom-up into a tower and its name scope.

    The divisors of each level resolve against the levels below it (their
    count and aliases), so the tower is built once, at the end.
    """
    chain: list[GeomBundle] = []
    node = ast
    while isinstance(node, GeomBundle):
        chain.append(node)
        node = node.base
    chain.reverse()  # base first

    names: dict[str, int] = {}
    levels: list[list[tuple[int, ...]]] = []
    for below, bundle_node in enumerate(chain):
        bundle = bundle_node.bundle
        if isinstance(bundle, TrivialBundle):
            levels.append([(0,) * below] * bundle.count)
        else:
            levels.append([_divisor_vector(d, names, below) for d in bundle.divisors])
        alias = bundle_node.alias
        if alias:
            if alias in names:
                raise InputError(f"alias {alias!r} bound twice")
            m = re.fullmatch(r"xi(\d+)", alias)
            if m and int(m.group(1)) != below + 1:
                raise InputError(f"alias {alias!r} on level {below + 1} is another level's name")
            names[alias] = below + 1
    return GeometryScope(Tower(levels), names)


def geometry_dim(ast: GeomAST) -> int:
    """The dimension of the tower the AST describes, without building it:
    each level adds its summand count minus one."""
    dim = 0
    while isinstance(ast, GeomBundle):
        bundle = ast.bundle
        count = bundle.count if isinstance(bundle, TrivialBundle) else len(bundle.divisors)
        dim += count - 1
        ast = ast.base
    return dim


def evaluate_class(ast: ClassAST, scope: GeometryScope) -> KClass:
    tower = scope.tower
    if isinstance(ast, ClassO):
        vec = (
            scope.divisor_vector(ast.divisor)
            if ast.divisor is not None
            else (0,) * tower.n_levels
        )
        return tower.line(vec)
    if isinstance(ast, ClassSum):
        left = evaluate_class(ast.left, scope)
        right = evaluate_class(ast.right, scope)
        return left + right if ast.sign > 0 else left - right
    if isinstance(ast, ClassDual):
        return evaluate_class(ast.inner, scope).dual()
    if isinstance(ast, ClassWedge):
        return evaluate_class(ast.inner, scope).wedge(ast.index)
    if isinstance(ast, ClassSym):
        return evaluate_class(ast.inner, scope).sym(ast.index)
    if isinstance(ast, ClassTwist):
        return evaluate_class(ast.inner, scope).twist(scope.divisor_vector(ast.divisor))
    raise InputError(f"unhandled class node {ast!r}")

"""Printers inverse to the specparse parsers, kept beside the parser tests.

geometry_text and class_text write a geometry or class AST back in the CLI's
languages, so that parse(text(ast)) == ast and the text of a parsed text is a
fixed point.  grrcheck itself prints no AST, so these live with the tests
that round-trip generated inputs through them.
"""

from __future__ import annotations

from grrcheck.arith import InputError
from grrcheck.specparse import (
    ClassAST,
    ClassDual,
    ClassO,
    ClassSum,
    ClassSym,
    ClassTwist,
    ClassWedge,
    DivisorExpr,
    GeomAST,
    TrivialBundle,
)


def divisor_text(div: DivisorExpr) -> str:
    if not div.terms:
        return "0"
    parts: list[str] = []
    for i, (coeff, name) in enumerate(div.terms):
        body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def geometry_text(ast: GeomAST) -> str:
    text = "point"
    for level in ast:  # base first, so each level is written over the text so far
        bundle = level.bundle
        if isinstance(bundle, TrivialBundle):
            inner = f"trivial {bundle.count}"
        else:
            inner = "[" + ", ".join(divisor_text(d) for d in bundle.divisors) + "]"
        alias = f" as {level.alias}" if level.alias else ""
        text = f"P({inner}){alias} over {text}"
    return text


def class_text(ast: ClassAST) -> str:
    if isinstance(ast, ClassO):
        return f"O({divisor_text(ast.divisor)})"
    if isinstance(ast, ClassSum):
        parts = []
        for i, (sign, term) in enumerate(ast.terms):
            text = class_text(term)
            if isinstance(term, ClassSum):
                text = f"({text})"
            parts.append(text if i == 0 else ("+ " if sign > 0 else "- ") + text)
        return " ".join(parts)
    if isinstance(ast, ClassDual):
        return f"dual({class_text(ast.inner)})"
    if isinstance(ast, ClassWedge):
        return f"wedge({ast.index}, {class_text(ast.inner)})"
    if isinstance(ast, ClassSym):
        return f"sym({ast.index}, {class_text(ast.inner)})"
    if isinstance(ast, ClassTwist):
        return f"twist({divisor_text(ast.divisor)}, {class_text(ast.inner)})"
    raise InputError(f"unhandled class node {ast!r}")

"""Closed-form profile expressions.

A tiny arithmetic grammar for user-supplied symbol/weight functions:

* identifiers ``x1`` .. ``xd`` (coordinates) and ``x`` (the full point,
  only as the argument of ``norm``),
* numeric literals, evaluated as float64,
* binary operators ``+ - * / ^`` (``^`` is the power operator),
* unary ``+``/``-``,
* the functions ``exp``, ``abs`` and ``norm(x)`` (Euclidean norm).

Expressions are parsed once into a vectorized callable that maps an
array of points with shape ``(..., d)`` to values of shape ``(...)``.
"""

from __future__ import annotations

import ast
import re
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "parse_expression"]


class ExpressionError(ValueError):
    """Raised when an expression string is outside the grammar."""


_ALLOWED_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_ALLOWED_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}

_FUNCTIONS = {"exp", "abs", "norm"}


def _fail(msg: str, src: str, node: ast.AST | None = None) -> None:
    where = ""
    if node is not None and hasattr(node, "col_offset"):
        where = f" (column {node.col_offset + 1})"
    raise ExpressionError(f"{msg}{where} in expression {src!r}")


class _Validator(ast.NodeVisitor):
    def __init__(self, src: str, dimension: int):
        self.src = src
        self.dimension = dimension

    def generic_visit(self, node):
        _fail(f"disallowed syntax {type(node).__name__!r}", self.src, node)

    def visit_Expression(self, node):
        self.visit(node.body)

    def visit_BinOp(self, node):
        if type(node.op) not in _ALLOWED_BINOPS:
            _fail(f"disallowed operator {type(node.op).__name__!r}", self.src, node)
        self.visit(node.left)
        self.visit(node.right)

    def visit_UnaryOp(self, node):
        if type(node.op) not in _ALLOWED_UNARY:
            _fail(f"disallowed operator {type(node.op).__name__!r}", self.src, node)
        self.visit(node.operand)

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)):
            _fail(f"disallowed literal {node.value!r}", self.src, node)

    def visit_Name(self, node):
        name = node.id
        if name == "x":
            _fail("'x' may only appear as norm(x)", self.src, node)
        # ASCII x<i> with no leading zero: the names the evaluator binds.
        if not re.fullmatch(r"x(0|[1-9][0-9]*)", name):
            _fail(f"unknown identifier {name!r}", self.src, node)
        index = int(name[1:])
        if not 1 <= index <= self.dimension:
            _fail(
                f"coordinate {name!r} out of range for dimension {self.dimension}",
                self.src,
                node,
            )

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            _fail("only exp, abs and norm may be called", self.src, node)
        if node.keywords or len(node.args) != 1:
            _fail(f"{node.func.id} takes exactly one argument", self.src, node)
        arg = node.args[0]
        if node.func.id == "norm":
            if not (isinstance(arg, ast.Name) and arg.id == "x"):
                _fail("norm accepts only the full point: norm(x)", self.src, node)
            return
        self.visit(arg)


class _Literals(ast.NodeTransformer):
    """Replace each numeric literal by a name bound to its float64 value,
    so that arithmetic on literals alone overflows to inf instead of
    running as Python big integers (``3^3^15`` would take seconds)."""

    def __init__(self):
        self.values: dict[str, np.float64] = {}

    def visit_Constant(self, node):
        name = f"_{len(self.values)}"
        self.values[name] = np.float64(node.value)
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


def parse_expression(src: str, dimension: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression string into a vectorized point function.

    The returned callable takes points of shape ``(..., d)`` and returns
    float values of shape ``(...)``.  Raises :class:`ExpressionError` with
    a diagnostic when the string is malformed or uses anything outside
    the grammar.
    """
    if dimension < 1:
        raise ExpressionError("dimension must be >= 1")
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("empty expression")
    # '^' is the grammar's power operator; Python's ast spells it '**'.
    pythonized = src.replace("^", "**")
    literals = _Literals()
    try:
        tree = ast.parse(pythonized, mode="eval")
        _Validator(src, dimension).visit(tree)
        code = compile(literals.visit(tree), filename="<profile-expression>", mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"syntax error in expression {src!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError(
            f"expression nested too deeply ({len(src)} characters)"
        ) from exc

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (dimension,):
            raise ValueError(
                f"points must have trailing axis of length {dimension}, got shape {pts.shape}"
            )
        env = {f"x{i + 1}": pts[..., i] for i in range(dimension)}
        env.update(literals.values)
        env["exp"] = np.exp
        env["abs"] = np.abs
        env["norm"] = lambda v: np.sqrt(np.sum(np.square(v), axis=-1))
        env["x"] = pts
        with np.errstate(all="ignore"):
            out = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - AST whitelisted
        return np.asarray(out, dtype=float) + np.zeros(pts.shape[:-1])

    evaluate.source = src  # type: ignore[attr-defined]
    return evaluate

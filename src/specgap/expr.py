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
Parsing checks the syntax tree against the grammar in one walk and turns
it into a post-order list of steps; evaluation runs those steps on a
stack of arrays, so no Python code is ever compiled or run.  The only
depth limits are the parser's: about 3000 tree levels (a flat sum of
2987 terms when parsed at the top of the call stack, three fewer per
caller frame), and 200 nested parentheses from the tokenizer.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "parse_expression"]


class ExpressionError(ValueError):
    """Raised when an expression string is outside the grammar."""


# The operator module dispatches exactly as Python's own operators do
# (``ndarray.__pow__`` and so on), so values match the written arithmetic.
_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}

# One evaluation step: (arity, function).  Arity 0 reads the points array;
# otherwise the function takes that many values off the stack.
Step = tuple[int, Callable]


def _fail(msg: str, src: str, node: ast.expr) -> None:
    raise ExpressionError(f"{msg} (column {node.col_offset + 1}) in expression {src!r}")


def _norm(pts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(pts), axis=-1))


_FUNCTIONS = {"exp": np.exp, "abs": np.abs, "norm": _norm}


def _check(node: ast.expr, src: str, dimension: int) -> tuple[Step, tuple[ast.expr, ...]]:
    """Check one node against the grammar; return its step and operands."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        if type(node.op) not in _OPERATORS:
            _fail(f"disallowed operator {type(node.op).__name__!r}", src, node)
        operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,)
        return (len(operands), _OPERATORS[type(node.op)]), operands
    if isinstance(node, ast.Constant):
        # bool is an int, but True + x1 is not arithmetic on numbers.
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            _fail(f"disallowed literal {node.value!r}", src, node)
        try:
            # float64, so that arithmetic on literals alone overflows to inf
            # instead of running as Python big integers (3^3^15).
            literal = np.float64(node.value)
        except OverflowError:
            _fail("integer literal out of float64 range", src, node)
        return (0, lambda pts: literal), ()
    if isinstance(node, ast.Name):
        name = node.id
        if name == "x":
            _fail("'x' may only appear as norm(x)", src, node)
        # ASCII x<i> with no leading zero: the coordinates of the point.
        if not re.fullmatch(r"x(0|[1-9][0-9]*)", name):
            _fail(f"unknown identifier {name!r}", src, node)
        index = int(name[1:])
        if not 1 <= index <= dimension:
            _fail(f"coordinate {name!r} out of range for dimension {dimension}", src, node)
        return (0, operator.itemgetter((..., index - 1))), ()
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            _fail("only exp, abs and norm may be called", src, node)
        if node.keywords or len(node.args) != 1:
            _fail(f"{node.func.id} takes exactly one argument", src, node)
        arg = node.args[0]
        if node.func.id == "norm":
            if not (isinstance(arg, ast.Name) and arg.id == "x"):
                _fail("norm accepts only the full point: norm(x)", src, node)
            return (0, _norm), ()
        return (1, _FUNCTIONS[node.func.id]), (arg,)
    _fail(f"disallowed syntax {type(node).__name__!r}", src, node)


def parse_expression(src: str, dimension: int) -> Callable[[np.ndarray], np.ndarray]:
    """Parse an expression string into a vectorized point function.

    The returned callable takes points of shape ``(..., d)`` and returns
    float values of shape ``(...)``.  Raises :class:`ExpressionError` with
    a diagnostic when the string is malformed or uses anything outside
    the grammar.
    """
    if dimension < 1:
        raise ExpressionError("dimension must be >= 1")
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("empty expression")
    try:
        # '^' is the grammar's power operator; Python's ast spells it '**'.
        tree = ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"syntax error in expression {src!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError(f"expression nested too deeply ({len(src)} characters)") from exc

    # Nodes are checked pre-order, left to right, so the first offending
    # node is the one reported; a node's step follows its operands' steps.
    steps: list[Step] = []
    todo: list[ast.expr | Step] = [tree.body]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            steps.append(item)
        else:
            step, operands = _check(item, src, dimension)
            todo += [step, *reversed(operands)]

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (dimension,):
            raise ValueError(
                f"points must have trailing axis of length {dimension}, got shape {pts.shape}"
            )
        stack = []
        with np.errstate(all="ignore"):
            for arity, fn in steps:
                if arity:
                    stack[-arity:] = [fn(*stack[-arity:])]
                else:
                    stack.append(fn(pts))
        return np.asarray(stack.pop(), dtype=float) + np.zeros(pts.shape[:-1])

    evaluate.source = src  # type: ignore[attr-defined]
    return evaluate

"""Small expression grammar for defining integrands and weight functions on
the command line.

Supported: arithmetic in one variable ``x`` (+, -, *, /, ** or ^),
constants ``pi`` and ``e``, the functions exp, sin, cos, tan, sqrt, log,
abs and ``step`` (0 for negative argument, 1 otherwise), e.g.
``"x^2"``, ``"sin(2*pi*x)"``, ``"step(x-0.5)"``.  Compiled expressions are
numpy-vectorised.  The form ``table:PATH`` instead loads a two-column CSV
sample table (handled by the CLI, not here).
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from ._checks import _real, is_number

_FUNCTIONS: dict[str, Callable] = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
    "step": lambda v: np.where(np.asarray(v, dtype=float) >= 0.0, 1.0, 0.0),
}

# Constants are numpy scalars, like x, so that a sub-expression made only of
# constants overflows to inf or nan as numpy does (e.g. "1/0", "2.0**10000")
# rather than raising as Python float arithmetic would; the caller's
# non-finite check then reports it.
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}

_UNARYOPS = {ast.UAdd: lambda a: a, ast.USub: lambda a: -a}

# Deepest syntax tree compiled, as CPython bounds nested parentheses: compiling
# and evaluating recurse once per level, which must leave room on the stack for
# the callers, the R-S walk among them.
_MAX_DEPTH = 200


class ExpressionError(ValueError):
    """The expression is malformed or uses something outside the grammar."""


def _compile_node(node: ast.AST) -> Callable:
    if isinstance(node, ast.Expression):
        return _compile_node(node.body)
    if isinstance(node, ast.Constant):
        if is_number(node.value):
            v = np.float64(_real(node.value))  # an int beyond the float range is inf
            return lambda x: v
        raise ExpressionError(f"unsupported constant {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id in _CONSTANTS:
            v = _CONSTANTS[node.id]
            return lambda x: v
        raise ExpressionError(f"unknown name {node.id!r} (only x, pi, e)")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp):
        op = _UNARYOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        inner = _compile_node(node.operand)
        return lambda x: op(inner(x))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords or len(node.args) != 1:
            raise ExpressionError("only f(expr) calls with one argument are allowed")
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ExpressionError(
                f"unknown function {node.func.id!r} (allowed: {sorted(_FUNCTIONS)})"
            )
        arg = _compile_node(node.args[0])
        return lambda x: fn(arg(x))
    raise ExpressionError(f"unsupported syntax: {type(node).__name__}")


def compile_expression(text: str) -> Callable:
    """Compile an expression in x to a vectorised callable."""
    source = text.replace("^", "**").strip()
    if not source:
        raise ExpressionError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:  # the parser's own stack overflowed
        raise ExpressionError(f"expression nested too deeply to parse "
                              f"(at most {_MAX_DEPTH} levels)") from exc
    depth, level = 0, [tree.body]
    while level:  # one level of nested expressions at a time, without recursion
        depth += 1
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {_MAX_DEPTH} levels")
        level = [child for node in level for child in ast.iter_child_nodes(node)
                 if isinstance(child, ast.expr)]
    fn = _compile_node(tree)
    with np.errstate(all="ignore"):  # fail fast on type errors only
        probe = fn(np.asarray(0.5))
        float(np.asarray(probe))
    return fn

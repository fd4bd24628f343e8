"""sustkit makes no BLAS-backed call.

A BLAS routine splits its sums among threads, so its rounding depends on the
thread count, and R-S sums, the fit and the solver's grids must not.  The
subprocess tests compare outputs under 1 and 2 threads; this scan of the
package's syntax keeps a BLAS call from coming back on a path they do not
reach."""

import ast
from pathlib import Path

import pytest

import sustkit

# numpy functions and array methods that call BLAS; numpy.linalg does throughout
BLAS_NAMES = frozenset({"tensordot", "dot", "matmul", "inner", "vdot", "linalg"})


def _blas_uses(source: str):
    """``(line, name)`` of each BLAS-backed call, attribute or import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if "linalg" in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            if "linalg" in (node.module or "").split("."):
                yield node.lineno, node.module
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name in BLAS_NAMES or a.name == "*")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
              and any(keyword.arg == "optimize" for keyword in node.keywords)):
            yield node.lineno, "einsum(optimize=...)"


def test_sources_make_no_blas_call():
    package = Path(sustkit.__file__).parent
    found = [f"{path.name}:{line}: {name}" for path in sorted(package.glob("*.py"))
             for line, name in _blas_uses(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source", [
    "np.tensordot(a, b, axes=1)", "a.dot(b)", "np.matmul(a, b)", "np.inner(a, b)",
    "np.vdot(a, b)", "np.linalg.solve(a, b)", "a @ b", "a @= b", "import numpy.linalg",
    "from numpy.linalg import lstsq", "from numpy import dot", "from numpy import *",
    "np.einsum('ij,jk->ik', a, b, optimize=True)",
])
def test_blas_scan_finds_each_form(source):
    assert len(list(_blas_uses(source))) == 1


@pytest.mark.parametrize("source", [
    "np.einsum('i,i->', a, b)", "inner = f(x)", "op(inner(x))", "np.fft.rfft(a)",
])
def test_blas_scan_passes_fixed_order_code(source):
    assert list(_blas_uses(source)) == []

"""No kernel body hands its arithmetic to BLAS.

`fesetround` sets the rounding mode of the calling thread only, and
`np.matmul`, `np.einsum`, `np.dot`, `np.tensordot` and the `@` operator may
run on BLAS threads that still round to nearest.  So the kernels, which
compute under round-down and round-up, contract with elementwise products
and `np.add.reduce` only.
"""

import ast
from pathlib import Path

KERNELS = Path(__file__).resolve().parents[1] / "src" / "choreocert" / "kernels.py"
BLAS_CALLS = frozenset({"matmul", "einsum", "dot", "tensordot"})


def blas_uses(source: str) -> list[str]:
    """`function: what` for each BLAS call or `@` product inside a function
    body of `source`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in (n for stmt in fn.body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                found.append(f"{fn.name}: {node.value.id}.{node.attr}")
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append(f"{fn.name}: @")
    return found


def test_no_kernel_body_names_blas():
    assert blas_uses(KERNELS.read_text(encoding="utf-8")) == []


def test_the_guard_sees_each_blas_spelling():
    source = ("import numpy as np\n"
              "def a(x, y):\n    return np.matmul(x, y)\n"
              "def b(x, y):\n    return numpy.einsum('ij,jk', x, y)\n"
              "def c(x, y):\n    return np.dot(x, y) + np.tensordot(x, y)\n"
              "def d(x, y):\n    x @= y\n    return x @ y\n")
    assert blas_uses(source) == [
        "a: np.matmul", "b: numpy.einsum", "c: np.dot", "c: np.tensordot",
        "d: @", "d: @"]

"""No floating point in a certification path: the exact modules use no
float literal, no `float` name and no `math` function beyond the integer
ones (floor, isqrt, gcd, lcm).
`portrait` is the one module allowed floats."""

import ast
from pathlib import Path

import pytest

import hypercycles

EXACT_MODULES = ("polyx", "rootclass", "lienard", "families", "recover")
INTEGER_MATH = {"floor", "isqrt", "gcd", "lcm"}


def _float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: name float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import {a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_uses_no_floats(module):
    path = Path(hypercycles.__file__).with_name(f"{module}.py")
    assert _float_uses(path.read_text()) == []


def test_guard_catches_each_kind_of_float_use():
    source = "import math\na = 0.5\nb = float(3)\nc = math.sqrt(2)\nd = math.isqrt(4)\n"
    assert len(_float_uses(source)) == 3
    assert _float_uses("from math import sqrt, gcd\n") == ["line 1: from math import sqrt"]


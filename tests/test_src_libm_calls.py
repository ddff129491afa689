"""src/ takes math.log, math.log1p and math.expm1 nowhere.

Every verdict, the count verdicts and find_d0's walk rejects alike,
reads integer logs (exactnum._ln), so nothing in the package rests on
the C library's log accuracy: no scope of src/, a definition, an
assignment or the module level, may call those three.  (FixedLog.nstr
sizes its working bits with exactnum._LOG2_10, a float literal, not a
call.)  The guard finds every use of those names in src/ (`math.log`,
`from math import log`, or `math` imported under another name) and the
top-level definition or assignment it sits in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "borsuk"

LIBM = {"log", "log1p", "expm1"}


def _scope(stmt):
    """The name of a top-level definition or single-name assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return "<module>"


def _libm_uses(source):
    """(scope, line) of each use of math.log, log1p or expm1 in source."""
    out = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                hit = (node.attr in LIBM and isinstance(node.value, ast.Name)
                       and node.value.id == "math")
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "math" and any(a.name in LIBM for a in node.names)
            elif isinstance(node, ast.Import):
                hit = any(a.name == "math" and a.asname for a in node.names)
            else:
                continue
            if hit:
                out.append((_scope(stmt), node.lineno))
    return out


def test_libm_only_in_walk_rejects():
    uses = {(path.name, scope, line) for path in sorted(SRC.glob("*.py"))
            for scope, line in _libm_uses(path.read_text(encoding="utf-8"))}
    assert uses == set()


def test_guard_sees_uses():
    source = ("import math\n"
              "X = math.log(10, 2)\n"
              "def f(x):\n"
              "    return math.log1p(x) + math.exp(x) + math.log2(x)\n"
              "class C:\n"
              "    def g(self, y):\n"
              "        from math import expm1\n"
              "        return expm1(y)\n"
              "import math as m\n"
              "value = 'math.log(2)'\n"
              "log = math.log\n")
    assert _libm_uses(source) == [("X", 2), ("f", 4), ("C", 7), ("<module>", 9),
                                  ("log", 11)]

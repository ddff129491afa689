"""No module in src/ imports mpmath.

borsuk prints its logs from plain integers (exactnum._ln and
_ln_factorial) and decides every count from those logs or exact
integers, so mpmath is a test dependency only: the tests' independent
oracle.  Loading it cost every command ~37 ms and ~4 MB at start-up.  The
guard flags `import mpmath`, `import mpmath.x`, `from mpmath import ...`
and `from mpmath.x import ...`, at any depth, and a fresh interpreter
that imports the package and all its submodules must not load it.
"""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import child_env

SRC = Path(__file__).resolve().parent.parent / "src" / "borsuk"

SUBMODULES = ("algebra", "bounds", "cli", "construction", "exactnum",
              "optimality", "params", "upper")


def _mpmath_imports(source):
    """Line numbers in source that import mpmath or one of its modules."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "mpmath" for name in names):
            out.append(node.lineno)
    return sorted(out)


def test_src_imports_no_mpmath():
    hits = {path.name: _mpmath_imports(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in hits.items() if lines} == {}


def test_guard_sees_imports():
    source = ("import mpmath\n"
              "from mpmath import mp\n"
              "import os, mpmath.libmp\n"
              "def f():\n"
              "    from mpmath.libmp import to_str\n"
              "from . import mpmath_free\n"
              "import mpmathx\n"
              "value = 'import mpmath'\n")
    assert _mpmath_imports(source) == [1, 2, 3, 5]


def test_fresh_import_leaves_mpmath_unloaded():
    script = ("import sys\n"
              "import borsuk\n"
              "from borsuk import %s\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
              % ", ".join(SUBMODULES))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_submodule_list_is_complete():
    assert sorted(p.stem for p in SRC.glob("*.py")
                  if p.stem not in ("__init__", "__main__")) == list(SUBMODULES)

"""No module in src/ writes the process environment.

borsuk is a library as much as a program: a caller's os.environ must
come back from any call as it went in.  Thread pools and the like are
capped by the caller, through the environment it starts borsuk in.  The
guard flags a store into or a deletion from os.environ, a call of one of
its mutating methods, a rebinding of os.environ itself, and os.putenv or
os.unsetenv.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "borsuk"

_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}
_WRITERS = {"putenv", "unsetenv"}


def _is_environ(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "environ")
            or (isinstance(node, ast.Name) and node.id == "environ"))


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def _environ_writes(source):
    """Line numbers in source that write the process environment."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            # os.environ[...] = ..., del os.environ[...], os.environ = ...
            hit = _is_environ(node.value if isinstance(node, ast.Subscript) else node)
        elif isinstance(node, ast.Call):
            f = node.func
            hit = (_name(f) in _WRITERS
                   or (isinstance(f, ast.Attribute) and f.attr in _MUTATORS
                       and _is_environ(f.value)))
        else:
            continue
        if hit:
            out.append(node.lineno)
    return sorted(out)


def test_src_writes_no_environment():
    writes = {path.name: _environ_writes(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_guard_sees_writes():
    source = ("import os\n"
              "from os import environ, putenv\n"
              "os.environ['OMP_NUM_THREADS'] = '2'\n"
              "del os.environ['X']\n"
              "os.environ.update(X='1')\n"
              "environ.setdefault('X', '1')\n"
              "os.putenv('X', '1')\n"
              "putenv('X', '1')\n"
              "os.environ = {}\n"
              "value = os.environ.get('X')\n")
    assert _environ_writes(source) == [3, 4, 5, 6, 7, 8, 9]

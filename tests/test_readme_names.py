"""The README names only what the code defines.

Every backticked Python name in README.md (a dotted identifier, maybe
with a call's arguments) must be defined in src/ or tests/: a function,
class, method, module-level or class-level name, a CLI subcommand or a
key of an output row.  Names of other kinds sit in an explicit allowlist.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# module paths, environment variables, file names and third-party names
_ALLOWED = {
    "borsuk", "borsuk.algebra", "borsuk.bounds", "borsuk.construction",
    "borsuk.exactnum", "borsuk.optimality", "borsuk.params", "borsuk.upper",
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "BENCH_pr27.json", "BENCH_pr28.json", "BENCH_pr29.json", "BENCH_pr30.json",
    "pyproject.toml", "src",
    "ValueError", "repr", "log1p", "expm1", "math.log",
    "mpmath.iv", "mpmath.nstr",
}


def _members(body, prefix, names):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, ast.Assign):
            found = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found = [node.target.id]
        else:
            continue
        for name in found:
            names.add(name)
            names.update(p + name for p in prefix)
        if isinstance(node, ast.ClassDef):
            _members(node.body, [p + node.name + "." for p in prefix] + [node.name + "."],
                     names)


def _defined():
    names = set()
    sources = sorted((ROOT / "src" / "borsuk").glob("*.py"))
    for path in sources + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prefix = ["borsuk.%s." % path.stem, path.stem + "."] if path in sources else []
        _members(tree.body, prefix, names)
        if path not in sources:
            continue
        for node in ast.walk(tree):
            # CLI subcommands and the keys of the rows commands print
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_parser"):
                names.add(node.args[0].value)
            elif isinstance(node, ast.Dict):
                names.update(k.value for k in node.keys
                             if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return names


def _readme_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        m = _NAME.match(span)
        rest = span[m.end():] if m else None
        if m and (rest == "" or (rest.startswith("(") and rest.endswith(")"))):
            out.add(m.group())
    return out


def test_readme_names_resolve():
    names = _readme_names()
    assert {"FixedPointTail", "find_d0", "borsuk.exactnum"} <= names
    assert sorted(names - _ALLOWED - _defined()) == []


def test_readme_allowlist_is_used():
    # an allowlisted name the README no longer uses is dead weight
    assert sorted(_ALLOWED - _readme_names()) == []

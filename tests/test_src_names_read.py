"""Every public module-level name in src/ has a reader in src/.

A function, class or constant that only tests read is an oracle, and
oracles live in tests/.  So each public name defined at the top level of
a module in src/borsuk must be read somewhere in src/ outside its own
definition, be exported in borsuk.__all__, or be a function that a
per-layer metric of BENCHMARK.json declares (perfbench's tracer reads
those by name).  A read is a plain name in the defining module or in one
that imports the name from it, or an attribute of that name anywhere.
"""

import ast
import json
from pathlib import Path

import borsuk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "borsuk"


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls"):
            out.add((parts[0], parts[1]))
    return out


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _imported_from(tree, module):
    """Names a module imports from borsuk.<module>."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, "borsuk." + module):
            out.update(alias.name for alias in node.names)
    return out


def _unread():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    declared = _declared()
    # (node, plain name read, attribute read) for every node of each module
    reads = {module: [(id(node),
                       node.id if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load) else None,
                       node.attr if isinstance(node, ast.Attribute) else None)
                      for node in ast.walk(tree)]
             for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            if (name.startswith("_") or name in borsuk.__all__
                    or (module, name) in declared):
                continue
            own = {id(node) for node in ast.walk(definition)}
            readers = {other for other, t in trees.items()
                       if other == module or name in _imported_from(t, module)}
            read = any(node not in own
                       and ((plain == name and other in readers) or attr == name)
                       for other, nodes in reads.items()
                       for node, plain, attr in nodes)
            if not read:
                out.append("%s.%s" % (module, name))
    return sorted(out)


def test_every_public_src_name_is_read():
    assert _unread() == []


def test_guard_sees_names():
    # the walk reaches definitions and reads in every module
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    names = {name for t in trees.values() for name, _ in _definitions(t)}
    assert {"certify_bound", "ENUMERATION_CAP", "LemmaCertificate", "Coeff"} <= names
    assert ("algebra", "max_avoiding_exact") in _declared()
    assert "ENUMERATION_CAP" in _imported_from(trees["algebra"], "construction")

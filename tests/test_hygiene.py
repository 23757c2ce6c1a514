"""Repository rules that a reading of the source can check."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pansampler"
# Reference code that tests compare the package against.
REFERENCE = {"oracle.py", "fuzz.py"}


# A "module:Class.method" target, as perfbench's probes name what they wrap.
_PROBE_TARGET = re.compile(r"[\w.]+:[\w.]+")


def _names_used(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement refers to: identifiers, attributes,
    imported names, and the dotted parts of probe-target strings. Other
    strings, such as a span name like "evaluate.satisfies", name nothing."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _PROBE_TARGET.fullmatch(node.value)):
            out.update(node.value.replace(":", ".").split("."))
    return out


def test_every_public_definition_in_the_package_is_used_outside_tests():
    # src/ holds no helpers that only tests use: each public module-level
    # function or class is named somewhere in src/, demos/ or perfbench/
    # (not its tests), other than in its own definition.
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "demos").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")]):
        if (ROOT / "perfbench" / "tests") in path.parents:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(stmt.name)
                if (path.parent == PACKAGE and path.name not in REFERENCE
                        and not stmt.name.startswith("_")):
                    defined.append((path.name, stmt.name))
            used |= names
    assert defined
    unused = [f"{file}: {name}" for file, name in defined
              if name not in used]
    assert unused == []

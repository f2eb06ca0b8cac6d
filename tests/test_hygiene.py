"""Source hygiene: no ``src/`` module imports a name it never uses, and
the wire version has its row in docs/wire.md.

The import check is a stdlib-``ast`` scan, so it needs no linter.  It
looks at module-level imports (including those under a module-level
``if`` or ``try``) and counts a name as used when it appears as a name
anywhere in the module, inside a string annotation, or in ``__all__``.
Package ``__init__`` files re-export by design and are exempt, as is
any import line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

from repro.core.wire import WIRE_VERSION

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = SRC.parent / "docs"


def _module_imports(tree):
    """``(line, bound name)`` of every module-level import."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
    return used


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = _used_names(tree)
        for line, name in _module_imports(tree):
            if name not in used and "noqa: F401" not in lines[line - 1]:
                unused.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_wire_version_table_ends_at_the_wire_version():
    """The last row of docs/wire.md's version table names the version
    the code speaks, so a version bump cannot ship without its row."""
    lines = (DOCS / "wire.md").read_text(encoding="utf-8").splitlines()
    at = lines.index("| version | change |")
    rows = []
    for line in lines[at + 2:]:         # past the header's separator
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip())
    assert rows and rows[-1] == str(WIRE_VERSION), rows

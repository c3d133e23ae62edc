"""Import hygiene, read from each module's syntax tree.

Two rules: the package exports every name its ``__init__`` imports, and no
module under src/, tests/, demos/ or perf/ imports a name it never reads.
A name listed in a module's ``__all__`` counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "ghzprotect" / "__init__.py"
MODULES = sorted(
    path for folder in ("src", "tests", "demos", "perf") for path in (ROOT / folder).rglob("*.py")
)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported(tree):
    """(name, line) for each name an import statement binds; ``__future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_package_exports_every_name_it_imports():
    tree = parse(PACKAGE_INIT)
    missing = sorted({name for name, _ in imported(tree)} - exported(tree))
    assert missing == []


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unread = []
    for path in MODULES:
        tree = parse(path)
        read = exported(tree) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unread += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported(tree)
            if name not in read
        ]
    assert unread == []

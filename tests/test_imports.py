"""Every module reads each name it imports. The sources are parsed with ast,
never imported, so the check runs no module code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: imports its public names to re-export them
PACKAGE_INIT = ROOT / "src" / "pcmopt" / "__init__.py"


def unused_imports(source: str) -> list[str]:
    """The names source imports, but from __future__, and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports(
        "from __future__ import annotations\nimport os.path, sys\n"
        "from csv import writer as w, reader\nsys.exit(w)\n") == [
        "line 2: os", "line 3: reader"]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path != PACKAGE_INIT
             and (unused := unused_imports(path.read_text()))}
    assert not found, f"unused imports: {found}"

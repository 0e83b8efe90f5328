"""The package's public surface is what its own code, demos and benchmark
use: no name in pcmopt.__all__ exists only for the tests."""

import ast
from pathlib import Path

import pcmopt

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(pcmopt.__file__).resolve()


def _referenced_names() -> set[str]:
    """Every name loaded, or attribute read, in the Python files under
    src/, demos/ and bench/, parsed as text and never imported. The
    package's __init__ only re-exports, so it is left out; a definition
    (def, class or assignment) is no reference."""
    names = set()
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    unused = sorted(set(pcmopt.__all__) - _referenced_names())
    assert unused == [], (f"{unused} are exported but used by no code in "
                          "src/, demos/ or bench/")

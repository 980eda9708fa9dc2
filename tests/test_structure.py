"""Checks on the package's source layout, read with ast rather than imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eulerpade"


def _private_padics_imports(path: Path) -> list[str]:
    """The _-prefixed names that one module imports from eulerpade.padics."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1 and node.module == "padics"
        if relative or node.module == "eulerpade.padics":
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
    return names


def test_only_padics_knows_the_residue_law():
    # a place's residue basis, its law x^2 = c + s*x and the pair product
    # stay private to padics; other modules use its public functions
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"padics", "certify", "pade"}
    leaks = {
        p.name: names
        for p in modules
        if p.stem != "padics" and (names := _private_padics_imports(p))
    }
    assert leaks == {}

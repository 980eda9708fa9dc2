"""Checks on the package's source layout, read with ast rather than imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eulerpade"


def _private_imports(path: Path, module: str) -> list[str]:
    """The _-prefixed names that one file imports from eulerpade.<module>."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1 and node.module == module
        if relative or node.module == f"eulerpade.{module}":
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
        if p.stem != "padics" and (names := _private_imports(p, "padics"))
    }
    assert leaks == {}


def test_the_certificate_check_is_public():
    # verify_certificate is the one check: cli, and any other module,
    # reach certify through its public names
    modules = sorted(SRC.glob("*.py"))
    assert "cli" in {p.stem for p in modules}
    leaks = {
        p.name: names
        for p in modules
        if p.stem != "certify" and (names := _private_imports(p, "certify"))
    }
    assert leaks == {}


#: the package modules each module may import.  errors sits under every
#: layer; arith < numfield < places < padics and numfield < polys < pade
#: are chains, bounds rests on places, certify on every layer, and cli on
#: anything
LAYERS = {
    "errors": set(),
    "arith": {"errors"},
    "numfield": {"errors", "arith"},
    "places": {"errors", "arith", "numfield"},
    "padics": {"errors", "arith", "numfield", "places"},
    "polys": {"errors", "arith", "numfield"},
    "pade": {"errors", "arith", "numfield", "polys"},
    "bounds": {"errors", "arith", "numfield", "places"},
}
LAYERS["certify"] = set(LAYERS)
LAYERS["cli"] = set(LAYERS)
LAYERS["__init__"] = set(LAYERS) - {"__init__"}


def _package_imports(path: Path) -> set[str]:
    """The eulerpade modules that one module imports, by name; "eulerpade"
    stands for the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            names |= {f"eulerpade.{module}" for module in modules}
    return {n.removeprefix("eulerpade.") for n in names if n.split(".")[0] == "eulerpade"}


def test_each_module_imports_only_its_lower_layers():
    modules = {p.stem: p for p in SRC.glob("*.py")}
    breaches = {
        name: sorted(extra)
        for name, path in modules.items()
        if (extra := _package_imports(path) - LAYERS.get(name, set()))
    }
    assert breaches == {}
    assert set(modules) == set(LAYERS)  # a new module takes its place here

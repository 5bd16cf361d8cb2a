"""No vscsim module imports a private (leading-underscore) name of another:
a format or rule that two modules need is a public name of the module that
owns it, so it lives in one place.  The benchmark in vscbench/ reaches the
program through public names only, by the same rule."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vscsim"


def _is_vscsim(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "vscsim"


def _dotted(node) -> str | None:
    """The dotted name of an expression such as a.b.c, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        value = _dotted(node.value)
        return value and f"{value}.{node.attr}"
    return None


def private_imports(source: str) -> list[str]:
    """`from <vscsim module> import _name`, and `mod._name` where `mod` is a
    vscsim module bound by `from . import mod`, by `import vscsim.mod` (as
    the dotted name) or by `import vscsim.mod as mod`, as "line: name"."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_vscsim(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.lineno}: {alias.name}")
                elif node.module is None or node.level == 0 and node.module == "vscsim":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("vscsim."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and _dotted(node.value) in modules:
            found.append(f"{node.lineno}: {_dotted(node)}")
    return sorted(found)


def test_private_imports_finds_each_form():
    source = "from .tables import _csv_field, write_csv\nfrom vscsim.units import _x\nfrom . import tables\ntables._BLOCK\n"
    assert private_imports(source) == ["1: _csv_field", "2: _x", "4: tables._BLOCK"]
    source = "import vscsim.tables\nimport vscsim.units as u\nvscsim.tables._BLOCK\nu._x\nvscsim.tables.write_csv\n"
    assert private_imports(source) == ["3: vscsim.tables._BLOCK", "4: u._x"]
    assert private_imports("from collections import _chain_map\nimport numpy as np\nnp._core\n") == []


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    found = {p.name: private_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_benchmark_reaches_the_program_through_public_names():
    paths = sorted((ROOT / "vscbench").glob("*.py"))
    assert len(paths) > 5
    found = {p.name: private_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}

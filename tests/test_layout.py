"""Checks on the package source itself: no module imports a name it does not use."""
import ast
from pathlib import Path

import pytest

import hourahead

PACKAGE = Path(hourahead.__file__).parent

# imported but unused, only so that bench/tracer.py can replace them by name
HELD_FOR_TRACER = {
    "adversary": ["offline_opt_dp", "simulate_run"],
    "cli": ["mocsmb_strategy", "ocsmb_strategy", "socs_strategy"],
}


def unused_imports(source: str) -> list[str]:
    """The names `source` imports at module level but never reads and does not
    list in ``__all__``; ``import a.b`` binds ``a``.  An import inside a
    function is left alone: it may be there only to load a module early."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == HELD_FOR_TRACER.get(module, [])


def test_one_module_writes_csv():
    # traces.write_csv writes every table; the module that reads CSVs holds it
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    ]
    assert importers == ["traces"]


def test_an_unused_import_is_found():
    assert unused_imports("def f():\n    import numpy.random\n") == []
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n"
    assert unused_imports(source + "__all__ = ['b']\n") == ["d", "os"]
    assert unused_imports(source + "__all__ = ['b']\nd(os.sep)\n") == []

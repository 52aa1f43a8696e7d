"""The public surface of ``src/``: every top-level definition is reached from other code there.

An AST scan lists each module-level function, class and assigned name of
``src/nvforge`` that no other top-level statement of ``src/`` names, as a
name, an attribute, an imported name or a string (the CLI's scan readers are
looked up by name).  Such a definition runs only in tests or in the
benchmark, so it belongs there, or on the list below with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nvforge"

# module.name -> why it stays in src/ although no src/ code names it.
UNREFERENCED = {
    "engines.t2_vs_n": "perfbench's decay-sweep runs it as its t2_vs_n op; criteria 3b and 3c call it",
    "engines.simulate_fid_beats": "perfbench's decay-sweep fid op makes its curve with it; criterion 4 calls it",
    "fitkit.fit_envelope": "perfbench's decay-sweep fid op calls it by name, and perfbench's tracer binds it",
    "dataio.write_t2_table_csv": "perfbench's tracer binds it",
    "fixtures.halo_grid_s1": "perfbench's tracer binds it",
    "fixtures.purity_grid_s4": "perfbench's tracer binds it",
}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _named(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced(src: Path = SRC) -> list[str]:
    """``module.name`` of each top-level definition in ``src`` that no other top-level statement names."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    named = [_named(stmt) for _, stmt in statements]
    statements_naming = Counter(name for names in named for name in names)
    return [f"{module}.{name}" for (module, stmt), names in zip(statements, named) for name in _defined(stmt)
            if statements_naming[name] == (name in names)]


def test_every_unreferenced_definition_is_listed_with_its_reason():
    assert sorted(unreferenced()) == sorted(UNREFERENCED)

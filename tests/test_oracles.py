"""The test-side oracles share no code with the library they check."""

import ast
from pathlib import Path


def test_oracles_are_independent():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "oracles.py imports nothing; the parse found no import nodes"
    offending = sorted(m for m in imported if m == "rok" or m.startswith(("rok.", ".")))
    assert not offending, f"oracles.py imports from the library: {offending}"

"""Guard against public API that only its own unit tests reach.

A public top-level function or class of a visblock module must be used by
other package code (outside its own definition), be exported in
`visblock.__all__`, or be used by the acceptance gate.
"""

import ast
from pathlib import Path

import visblock

PACKAGE = Path(visblock.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _referenced_names(tree) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_every_public_name_is_reached_outside_its_unit_tests():
    nodes = [
        (p.stem, node)
        for p in sorted(PACKAGE.glob("*.py"))
        if p.stem != "__init__"
        for node in ast.parse(p.read_text()).body
    ]
    refs = [_referenced_names(node) for _, node in nodes]
    allowed = set(visblock.__all__) | _referenced_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = [
        f"{module}.{node.name}"
        for i, (module, node) in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in allowed
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
    ]
    assert not unreached, f"public names reached only from unit tests: {unreached}"

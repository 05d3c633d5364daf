"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "itlmc"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from x import y as z` binds `z`
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    # a Name node is every read, including the `a` of `a.b`; a string
    # constant covers forward references such as Optional["SourceSpan"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's re-exports.
    assert _unused_imports(ast.parse(path.read_text())) == []

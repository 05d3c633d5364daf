"""Source hygiene checks and the design rules they pin."""

import ast
import importlib
from pathlib import Path

import pytest

from itlmc import (
    Corpus,
    EvalCaps,
    InputError,
    SemanticClass,
    ValidUpTo,
    build_separation_matrix,
    check,
    get_logic,
    instantiate,
    paper_suite,
    parse_derivation,
    parse_formula,
    translate_weak,
    validity,
)
from itlmc.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "itlmc"


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


def _package_imports(path: Path) -> set[str]:
    """The package modules that a module imports at its top level."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("itlmc."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("itlmc.")}
    return found


@pytest.mark.parametrize("module, allowed", [
    ("formula", set()),
    ("poset", {"formula"}),
    ("realline", {"formula"}),
    # parser reads the file formats of the engines' objects, below the
    # commands that use them; hilbert reads its schemas and rules through it
    ("parser", {"formula", "poset", "realline"}),
    ("hilbert", {"formula", "parser"}),
    ("search", {"formula", "hilbert", "parser", "poset", "realline"}),
    ("corpus", {"formula", "hilbert", "parser", "poset", "realline", "search"}),
    ("cli", {"corpus", "formula", "hilbert", "parser", "poset", "realline", "search"}),
])
def test_package_imports_point_down_the_layers(module, allowed):
    assert _package_imports(SRC / f"{module}.py") == allowed


def _private_imports(path: Path) -> list[str]:
    """The _-prefixed names that a module imports from another package module."""
    return [
        f"{alias.name} from {node.module} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "itlmc")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    # What a module keeps private, such as the intern table's key scheme in
    # formula.py, stays inside it.
    assert _private_imports(path) == []


def _inexact(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"float( (line {node.lineno})")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "math" for alias in node.names):
                found.append(f"import math (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "math":
            found.append(f"from math import (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exact_stays_exact(path):
    # Verdicts rest on exact arithmetic: Fraction endpoints and integer masks.
    assert _inexact(ast.parse(path.read_text())) == []


def _module_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


def _reads(tree: ast.Module) -> set[str]:
    # loaded names, attributes, imported names, and strings such as the
    # ("itlmc.realline", "eval_real") pairs the tracer patches by name
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            read.add(n.value)
    return read


def test_every_module_level_name_is_read():
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            read |= _reads(ast.parse(path.read_text()))
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _module_names(ast.parse(path.read_text())).items()
        if name not in read and not name.startswith("__")
    ]
    assert unread == []


def test_engines_answer_on_deep_input(tmp_path, capsys):
    corpus = Corpus()
    facts = paper_suite(corpus)
    assert len(facts) == 25 and all(result.ok for _, result in facts)
    edges = build_separation_matrix(corpus)
    assert len(edges) == 18 and all(report.ok for report in edges)
    semclass = SemanticClass("e", 3)
    assert isinstance(validity(parse_formula("[]p -> p"), semclass), ValidUpTo)
    assert not isinstance(validity(parse_formula("(p -> q) | (q -> p)"), semclass), ValidUpTo)
    weak = parse_derivation(
        "1. [*]p -> [*]O p ; axiom wh {phi:=p}\n"
        "2. ([*]p -> [*]O p) -> [*]p & [*]p -> [*]O p ; ipc-taut\n"
        "3. [*]p & [*]p -> [*]O p ; mp 1 2\n"
    )
    assert check(weak, get_logic("ITL.dw")).ok

    # comparing and hashing formulas take constant time at any depth, so
    # the checker's comparisons of deep lines need no recursion
    x = "O " * 5000 + "p"
    deep = parse_formula(x)
    assert parse_formula(x) is deep and isinstance(hash(deep), int)
    path = tmp_path / "deep.drv"
    for text in (
        f"1. []({x}) -> ({x}) ; axiom viii {{phi:={x}}}\n",
        f"1. []({x}) -> ({x}) ; axiom viii\n",
        f"1. {x} -> {x} ; ipc-taut\n2. O({x} -> {x}) ; nec-next 1\n",
    ):
        path.write_text(text)
        code = main(["prove", "--logic", "ITL.db", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), err
        assert out.startswith("accepted (")


def test_every_exception_class_is_an_input_error():
    # The CLI maps InputError to exit 3 in one place; any other exception
    # class of the package would reach users as an internal error.
    classes = [
        value
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for value in vars(importlib.import_module(f"itlmc.{path.stem}")).values()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__ == f"itlmc.{path.stem}"
    ]
    assert len(classes) > 10
    assert [c.__name__ for c in classes if not issubclass(c, InputError)] == []
    # Public calls on malformed input raise it too, not a bare ValueError.
    p = parse_formula("p")
    for call in (
        lambda: SemanticClass("x", 3),
        lambda: instantiate(get_logic("ITL.db").axioms["vi"], {"phi": p, "psi": p, "chi": p}),
        lambda: translate_weak(parse_formula("[]p & [*]p")),
        lambda: EvalCaps(iter=-1),
        lambda: EvalCaps(window="8"),
    ):
        with pytest.raises(InputError):
            call()

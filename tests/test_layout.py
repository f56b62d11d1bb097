"""Package layout rules, checked over the source tree with ``ast``.

Only ``_files.py`` opens files (one module reads and writes every file),
only ``cli.py`` prints (library code writes nothing to stdout), and within
``embeddings.py`` only ``embed`` and ``cosine`` take a norm (providers hand
out raw vectors, and ``embed`` alone normalizes them).
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "nsplan"
MODULES = sorted(PACKAGE.glob("*.py"))


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(path, name):
    """Line numbers of every call to ``name(...)`` or ``<expr>.name(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _called(node) == name]


def _callers(path, name):
    """Qualified names (``Class.method`` for a method) of the functions whose
    bodies call ``name(...)``; a call outside any function is ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    callers = set()

    def visit(node, owner, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}{node.name}"
            if not isinstance(node, ast.ClassDef):
                owner = scope
            scope += "."
        elif isinstance(node, ast.Call) and _called(node) == name:
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    visit(tree, "<module>", "")
    return callers


def test_the_package_is_scanned():
    assert {"_files.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("name, owner", [("open", "_files.py"), ("print", "cli.py")])
def test_only_the_owner_module_calls(name, owner):
    offenders = {
        p.name: lines for p in MODULES if p.name != owner and (lines := _calls(p, name))
    }
    assert not offenders, f"{name}() is called outside {owner}: {offenders}"


def test_only_embed_and_cosine_take_a_norm():
    callers = _callers(PACKAGE / "embeddings.py", "norm")
    assert callers <= {"embed", "cosine"}, f"norm() is called outside embed and cosine: {callers - {'embed', 'cosine'}}"
    assert "embed" in callers

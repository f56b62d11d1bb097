"""Package layout rules, checked over the source tree with ``ast``.

Only ``_files.py`` opens files (one module reads and writes every file),
and only ``cli.py`` prints (library code writes nothing to stdout).
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "nsplan"
MODULES = sorted(PACKAGE.glob("*.py"))


def _calls(path, name):
    """Line numbers of every call to ``name(...)`` or ``<expr>.name(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                lines.append(node.lineno)
    return lines


def test_the_package_is_scanned():
    assert {"_files.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("name, owner", [("open", "_files.py"), ("print", "cli.py")])
def test_only_the_owner_module_calls(name, owner):
    offenders = {
        p.name: lines for p in MODULES if p.name != owner and (lines := _calls(p, name))
    }
    assert not offenders, f"{name}() is called outside {owner}: {offenders}"

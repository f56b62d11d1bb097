"""Package layout rules, checked over the source tree with ``ast``.

The package root ``__init__.py`` imports nothing: every name has one import
path, its module's, and importing one pipeline module loads only what that
module needs (the planner and the CLI never pull in the metrics module;
``nsplan eval`` imports it when it runs). No module loads scipy, which only
the tests use, nor an HTTP client: only ``_http.py`` imports ``urllib``,
``http`` or ``socket``, and only inside the one function that sends.
Only ``_files.py`` opens files (one module reads and writes every file) and
calls ``raw_decode`` (one JSON fast path, bounded to give what
``json.loads`` gives), only ``cli.py`` prints (library code writes nothing
to stdout), in the whole package only ``embeddings.embed_rows``, ``cosine``
and ``row_norms`` take a norm (providers hand out raw vectors, ``embed_rows``
alone normalizes them, and every cosine, the token table's and adaption's with
their stored norms included, is ``cosine_of_dot`` over norms that
``cosine`` or ``row_norms`` took, so no module takes a norm of its own), only
``embed_rows`` (and the table's hash fallback) calls a provider's own
``.embed``, so no caller skips the vector store or the vector contract, every
parameter with a default is set by some call in the program (an option that only
tests set is a constant or goes), and no error the package defines or
raises is a ``LookupError`` (``str(KeyError(m))`` is ``repr(m)``, so its
message would print quoted), each household relation is named, as a string
constant outside docstrings, in one module only (its rule table's), and
every module parses as Python 3.10, the oldest version ``pyproject.toml``
supports.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nsplan"
MODULES = sorted(PACKAGE.glob("*.py"))
# the program: the package, the benchmark harness and the demos
PROGRAM = sorted(p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))
NETWORK_MODULES = {"urllib", "http", "socket"}


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(path, name):
    """Line numbers of every call to ``name(...)`` or ``<expr>.name(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _called(node) == name]


def _provider_embed(call):
    """Whether ``call`` is ``<expr>.embed(...)`` on anything but the
    ``embeddings`` module: a provider's own embed."""
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "embed"
            and not (isinstance(func.value, ast.Name) and func.value.id == "embeddings"))


def _callers(path, matches):
    """Qualified names (``Class.method`` for a method) of the functions whose
    bodies make a call for which ``matches(call)`` holds; a call outside any
    function is ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    callers = set()

    def visit(node, owner, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}{node.name}"
            if not isinstance(node, ast.ClassDef):
                owner = scope
            scope += "."
        elif isinstance(node, ast.Call) and matches(node):
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    visit(tree, "<module>", "")
    return callers


def test_the_package_is_scanned():
    assert {"_files.py", "cli.py"} <= {p.name for p in MODULES}
    assert {"cli.py", "workloads.py", "02_offline_planning.py"} <= {p.name for p in PROGRAM}


def test_the_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"src/nsplan/__init__.py imports at lines {imports}; import each name from its module"


def test_pipeline_modules_load_neither_metrics_nor_scipy():
    code = (
        "import sys, nsplan.kg, nsplan.planner, nsplan.causal, nsplan.cli; "
        "print(sorted(m for m in ('scipy', 'nsplan.metrics') if m in sys.modules))"
    )
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"a fresh import of kg, planner, causal and cli loaded {proc.stdout.strip()}"


def test_no_module_loads_scipy():
    """Nor an HTTP client: ``_http`` imports ``urllib.request`` only when it sends."""
    names = ["nsplan"] + [f"nsplan.{p.stem}" for p in MODULES if p.stem != "__init__"]
    loaded = "sorted(m for m in ('scipy', 'urllib.request', 'requests') if m in sys.modules)"
    code = f"import importlib, sys; [importlib.import_module(n) for n in {names!r}]; print({loaded})"
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert {"nsplan.metrics", "nsplan.cli"} <= set(names)
    assert proc.stdout.strip() == "[]", f"a fresh import of {names} loaded {proc.stdout.strip()}"


def test_only_http_imports_the_network():
    offenders = {}
    for path in MODULES:
        if path.name == "_http.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in NETWORK_MODULES for name in names):
                offenders.setdefault(path.name, []).append(node.lineno)
    assert not offenders, f"modules other than _http.py import {sorted(NETWORK_MODULES)}: {offenders}"


@pytest.mark.parametrize("name, owner", [("open", "_files.py"), ("raw_decode", "_files.py"), ("print", "cli.py")])
def test_only_the_owner_module_calls(name, owner):
    offenders = {
        p.name: lines for p in MODULES if p.name != owner and (lines := _calls(p, name))
    }
    assert not offenders, f"{name}() is called outside {owner}: {offenders}"


def test_only_embed_and_the_cosines_take_a_norm():
    allowed = {"embeddings.embed_rows", "embeddings.cosine", "embeddings.row_norms"}
    callers = {
        f"{p.stem}.{caller}" for p in MODULES for caller in _callers(p, lambda call: _called(call) == "norm")
    }
    assert callers <= allowed, f"norm() is called outside {sorted(allowed)}: {callers - allowed}"
    assert {"embeddings.embed_rows", "embeddings.row_norms"} <= callers


def test_only_embed_calls_a_provider():
    callers = {p.name: found for p in MODULES if (found := _callers(p, _provider_embed))}
    assert callers == {"embeddings.py": {"embed_rows", "TableEmbedding.embed"}}, (
        f"a provider's .embed() is called outside embeddings.embed_rows: {callers}"
    )


def _defaulted_parameters(path):
    """(qualified function name, called name, parameter, position) for each
    parameter with a default; position is None for a keyword-only one and
    does not count ``self`` or ``cls``. ``__init__`` and ``__new__`` are called
    by their class name."""
    found = []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if owner else 0  # the package has no static methods
                first_default = len(positional) - len(args.defaults)
                called = owner if child.name in ("__init__", "__new__") else child.name
                qualname = f"{scope}{child.name}"
                for i, arg in enumerate(positional):
                    if i >= first_default:
                        found.append((qualname, called, arg.arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((qualname, called, arg.arg, None))
                visit(child, f"{qualname}.", None)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "", None)
    return found


def _sets(call, parameter, position):
    """Whether ``call`` sets the parameter: by keyword, by position, or
    through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_has_a_caller():
    calls = {}
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called(node), []).append(node)
    uncalled = {
        (qualname, parameter)
        for path in MODULES
        for qualname, called, parameter, position in _defaulted_parameters(path)
        if not any(_sets(call, parameter, position) for call in calls.get(called, ()))
    }
    assert uncalled == set(), "parameters that no call in src/, perfbench/ or demos/ sets"


LOOKUP_ERRORS = {"LookupError", "KeyError", "IndexError"}


def _raised_lookup_errors(path):
    """Line numbers of every ``raise KeyError``, ``raise KeyError(...)`` and
    the like for IndexError and LookupError."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in LOOKUP_ERRORS:
                lines.append(node.lineno)
    return lines


def test_no_package_error_is_a_lookup_error():
    modules = [importlib.import_module(f"nsplan.{p.stem}") for p in MODULES if p.stem != "__init__"]
    classes = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and issubclass(obj, LookupError)
    )
    assert not classes, f"package classes that derive from LookupError: {classes}"
    raised = {p.name: lines for p in MODULES if (lines := _raised_lookup_errors(p))}
    assert not raised, f"modules that raise a LookupError: {raised}"


def _string_constants(path):
    """Every string constant of the module that is not a docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(first.value)
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docstrings
    }


def test_each_household_relation_is_named_in_one_module():
    from nsplan.kg import HOUSEHOLD_RELATIONS

    constants = {p.name: _string_constants(p) for p in MODULES}
    naming = {r: sorted(name for name, found in constants.items() if r in found) for r in HOUSEHOLD_RELATIONS}
    spelled_twice = {r: names for r, names in naming.items() if len(names) != 1}
    assert not spelled_twice, f"household relations named in more or fewer than one module: {spelled_twice}"


def test_every_module_parses_as_python_3_10():
    """``pyproject.toml`` promises Python 3.10, so no module may use later
    syntax such as ``except*`` or a ``type`` statement."""
    failures = []
    for path in MODULES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as err:
            failures.append(f"{path.name}:{err.lineno}: {err.msg}")
    assert not failures, f"modules that need a Python newer than 3.10: {failures}"

"""Every exported name resolves: a stale entry in an __all__ fails here,
not at a user's `from shadowhp.x import *`. Each public name has one home:
the module whose __all__ lists it defines it, and the package exports it
from there.
"""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import shadowhp

_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(shadowhp.__path__, "shadowhp.")
    if info.name != "shadowhp.__main__"
)


def test_the_library_modules_declare_their_exports():
    declared = {name for name in _MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert declared >= {
        "shadowhp.amplitudes",
        "shadowhp.cli",
        "shadowhp.commands",
        "shadowhp.errors",
        "shadowhp.experiments",
        "shadowhp.geometry",
        "shadowhp.hpspace",
        "shadowhp.kernel",
        "shadowhp.regions",
        "shadowhp.runio",
        "shadowhp.specfun",
    }


@pytest.mark.parametrize("name", ["shadowhp", *_MODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_dir_lists_every_export():
    # the lazy package resolves names on access; dir() must not wait for that
    listed = dir(shadowhp)
    assert listed == sorted(listed)
    assert set(shadowhp.__all__) <= set(listed)


def _imported_names(node: ast.AST) -> set[str]:
    """Names bound by the imports of a module's top level, including those
    under an if or a try (a TYPE_CHECKING block), not inside a def or class."""
    names = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in child.names}
        elif isinstance(child, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in child.names}
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names |= _imported_names(child)
    return names


def test_no_module_exports_a_name_it_imports():
    reexported = {}
    for name in ["shadowhp", *_MODULES]:
        module = importlib.import_module(name)
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        names = sorted(set(getattr(module, "__all__", ())) & _imported_names(tree))
        if names:
            reexported[name] = names
    assert reexported == {}


def test_every_package_name_is_in_its_modules_all():
    stray = [
        (module, name)
        for module, names in shadowhp._EXPORTS.items()
        for name in names
        if name not in importlib.import_module(module).__all__
    ]
    assert stray == []


def test_every_benchmark_trace_target_resolves():
    # the benchmark wraps these attributes; a renamed or removed one breaks it
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (module, attr)
        for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

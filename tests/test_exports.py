"""Every exported name resolves: a stale entry in an __all__ fails here,
not at a user's `from shadowhp.x import *`. Each public name has one home:
the module whose __all__ lists it defines it, and the package exports it
from there.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _imports(node: ast.AST):
    """(name, statement) for each name bound by an import of a module's top
    level, including those under an if or a try (a TYPE_CHECKING block), not
    inside a def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.asname or alias.name.partition(".")[0], child
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                yield alias.asname or alias.name, child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports(child)


def _imported_names(node: ast.AST) -> set[str]:
    """Names bound by the imports of a module's top level (see _imports)."""
    return {name for name, _ in _imports(node)}


def test_no_module_exports_a_name_it_imports():
    reexported = {}
    for name in ["shadowhp", *_MODULES]:
        module = importlib.import_module(name)
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        names = sorted(set(getattr(module, "__all__", ())) & _imported_names(tree))
        if names:
            reexported[name] = names
    assert reexported == {}


def test_every_top_level_import_is_used():
    # an import that the module neither uses nor exports is left over; a line
    # marked `# noqa: F401` is kept on purpose (a benchmark trace target)
    unused = {}
    for name in ["shadowhp", *_MODULES]:
        module = importlib.import_module(name)
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        names = sorted(
            bound
            for bound, stmt in _imports(tree)
            if bound not in used
            and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
            and not any(
                "# noqa: F401" in line for line in lines[stmt.lineno - 1 : stmt.end_lineno]
            )
        )
        if names:
            unused[name] = names
    assert unused == {}


#: import roots that the library never loads: the tests' quadrature oracle
#: and their high-precision references stay out of every command
_TEST_ONLY_PACKAGES = ("scipy.integrate", "mpmath")


def test_no_library_module_imports_a_test_only_package():
    found = []
    for path in sorted(pathlib.Path(shadowhp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                (path.name, node.lineno, target)
                for target in targets
                if any(target == pkg or target.startswith(pkg + ".") for pkg in _TEST_ONLY_PACKAGES)
            ]
    assert found == []


#: names that moved from the library to the tests' oracles module
_MOVED_TO_TESTS = {
    "shadowhp.amplitudes": ("de_dn_check", "e_go", "e_remainder_check", "gtd_far_field"),
    "shadowhp.errors": ("OracleError",),
    "shadowhp.experiments": ("DipScanResult", "RateFit", "dip_scan", "fit_rate"),
    "shadowhp.hpspace": ("bernstein_rho",),
    "shadowhp.specfun": ("fresnel_oracle",),
}


@pytest.mark.parametrize("module", sorted(_MOVED_TO_TESTS))
def test_names_moved_to_the_tests_are_gone_from_the_library(module):
    names = _MOVED_TO_TESTS[module]
    for owner in (shadowhp, importlib.import_module(module)):
        assert [name for name in names if hasattr(owner, name)] == []
    assert set(names).isdisjoint(shadowhp.__all__)


def test_run_grid_takes_the_grid_alone():
    # parallelism changed nothing, so run_grid no longer takes it
    import shadowhp.cli

    for run_grid in (shadowhp.run_grid, shadowhp.cli.run_grid):
        assert list(inspect.signature(run_grid).parameters) == ["grid"]


def test_check_parallelism_is_gone():
    # the config key is checked where it is read, by commands.parse_config
    assert not hasattr(importlib.import_module("shadowhp.experiments"), "check_parallelism")


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

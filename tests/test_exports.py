"""Every exported name resolves: a stale entry in an __all__ fails here,
not at a user's `from shadowhp.x import *`.
"""

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
        "shadowhp.experiments",
        "shadowhp.geometry",
        "shadowhp.hpspace",
        "shadowhp.kernel",
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

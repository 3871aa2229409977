"""Suite-wide set-up: Python processes the tests start import the same
shadowhp as the suite itself, also from a checkout without an install, and
fail on a numpy RuntimeWarning as the suite itself does."""

import os

import pytest

import shadowhp


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_shadowhp():
    src = os.path.dirname(os.path.dirname(os.path.abspath(shadowhp.__file__)))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(path))
        mp.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        yield

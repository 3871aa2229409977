"""The README's Library tour runs against the library as it is, so that an
API change cannot leave the README behind."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    return block


def test_the_library_tour_runs_as_written(capsys):
    namespace: dict = {}
    exec(compile(_library_tour(), f"{README} (Library tour)", "exec"), namespace)
    res = namespace["res"]
    assert capsys.readouterr().out == f"{res.relative_error} {res.dof}\n"
    # what its comments say of the result
    index, share = res.worst_element
    assert index == 0 and share > 0.99999
    assert res.space.mesh.elements()[0] == pytest.approx((0.0, 0.775), rel=1e-12)

"""Command-line interface: output formats, exit codes, config handling."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.cli import _CONFIG_SCHEMA, build_parser, main, parse_config
from shadowhp.errors import ConfigError
from shadowhp.experiments import ExperimentGrid
from shadowhp.hpspace import best_approx_error
from shadowhp.specfun import fresnel_fr

PI = math.pi


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_commands_repeat_identically_in_one_process(tmp_path, capsys):
    # the parser is shared between calls, so no call may leave state in it
    csv = tmp_path / "sweep.csv"
    cfg = tmp_path / "sweep.conf"
    cfg.write_text(f"k_values = 16\nalpha_values = 2.3\np_values = 2, 3\noutput = {csv}\n")
    v = ["eval", "V", "--s", "0.5", "--k", "16", "--lnc", "1.5", "--lncp", "1"]
    commands = [
        ["experiment", str(cfg)],
        ["project", "--k", "16", "--alpha", "2.35619449", "--p", "4"],
        [*v, "--alpha", "135", "--degrees"],
        ["region", "--R", "1", "--beta", "2", "--nx", "4", "--ny", "3"],
        [*v, "--alpha", "2.35619449"],
        ["cert", "--n-samples", "1000"],
    ]
    passes = []
    for _ in range(2):
        outputs = []
        for argv in commands:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            outputs.append(out)
        outputs.append(csv.read_text(encoding="ascii"))
        passes.append(outputs)
    assert passes[0] == passes[1]


def test_eval_fr_origin(capsys):
    code, out, err = run_cli(["eval", "fr", "0", "0"], capsys)
    assert code == 0
    assert out == "0.5,0\n"
    assert err == ""


def test_eval_fr_matches_library(capsys):
    code, out, _ = run_cli(["eval", "fr", "1.5"], capsys)
    assert code == 0
    re, im = (float(x) for x in out.strip().split(","))
    want = fresnel_fr(1.5)
    assert (re, im) == (want.real, want.imag)


def test_eval_e_near_pi(capsys):
    code, out, _ = run_cli(
        ["eval", "E", "--r", "1", "--psi", "3.14159265358979", "--k", "2"], capsys
    )
    assert code == 0
    re, im = (float(x) for x in out.strip().split(","))
    assert re == pytest.approx(0.5 * math.cos(2.0), rel=1e-12)
    assert im == pytest.approx(0.5 * math.sin(2.0), rel=1e-12)


def test_eval_v_round_trip_bit_exact(capsys):
    code, out, _ = run_cli(
        ["eval", "V", "--s", "0.5", "--k", "16", "--alpha", "2.35619449",
         "--lnc", "1.5", "--lncp", "1"],
        capsys,
    )
    assert code == 0
    re, im = (float(x) for x in out.strip().split(","))
    want = amplitude_v(0.5, ShadowConfig(k=16.0, alpha=2.35619449, l_nc=1.5, l_nc_prime=1.0))
    assert (re, im) == (want.real, want.imag)


def test_degrees_flag_equivalence(capsys):
    code_r, out_r, _ = run_cli(
        ["eval", "E", "--r", "2", "--psi", repr(0.5 * PI), "--k", "3"], capsys
    )
    code_d, out_d, _ = run_cli(
        ["eval", "E", "--r", "2", "--psi", "90", "--k", "3", "--degrees"], capsys
    )
    assert code_r == code_d == 0
    assert out_r == out_d


def test_eval_domain_error_exit_code(capsys):
    # point on the branch cut of r(s)
    code, out, err = run_cli(
        ["eval", "g", "--s", "-0.5", "2.0", "--R", "1", "--beta", repr(2.0 * PI / 3.0),
         "--k", "5"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "domain error" in err


def test_eval_v_negative_s_exit_code(capsys):
    code, out, err = run_cli(
        ["eval", "V", "--s", "-0.5", "--k", "16", "--alpha", "2.4",
         "--lnc", "1.5", "--lncp", "1"],
        capsys,
    )
    assert code == 1
    assert "domain error" in err


def _region_rows(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,in_cut,in_R,in_ellipse,in_S"
    return [line.split(",") for line in lines[1:]]


def test_region_ellipse_empty_at_right_angle(capsys):
    rows = _region_rows(
        ["region", "--R", "1", "--beta", repr(0.5 * PI), "--nx", "9", "--ny", "9"],
        capsys,
    )
    assert len(rows) == 81
    assert all(r[4] == "0" for r in rows)


def test_region_right_half_plane_is_inside(capsys):
    rows = _region_rows(
        ["region", "--R", "1", "--beta", repr(2.0 * PI / 3.0),
         "--re-min", "0.1", "--re-max", "2", "--im-min", "-1", "--im-max", "1",
         "--nx", "8", "--ny", "8"],
        capsys,
    )
    assert all(r[2] == "1" and r[3] == "1" for r in rows)


def test_region_fraction_changes_across_right_angle(capsys):
    def count(beta: float) -> int:
        rows = _region_rows(
            ["region", "--R", "1", "--beta", repr(beta), "--nx", "17", "--ny", "17"],
            capsys,
        )
        return sum(1 for r in rows if r[3] == "1")

    assert count(0.5 * PI - 0.3) != count(0.5 * PI + 0.3)


def test_region_resolution_cap(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    code, out, err = run_cli(
        ["region", "--R", "1", "--beta", "1.0", "--nx", "70000", "--ny", "70000",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 2
    assert "config error" in err
    assert not out_file.exists()


def test_region_output_file(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    code, out, _ = run_cli(
        ["region", "--R", "1", "--beta", "1.0", "--nx", "4", "--ny", "3",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text(encoding="ascii").strip().split("\n")
    assert len(lines) == 1 + 12


def test_project_matches_library(capsys):
    alpha = 0.75 * PI
    code, out, _ = run_cli(
        ["project", "--k", "16", "--alpha", repr(alpha), "--p", "4"], capsys
    )
    assert code == 0
    err_s, rel_s, dof_s = out.strip().split(",")
    want = best_approx_error(
        ShadowConfig(k=16.0, alpha=float(repr(alpha)), l_nc=1.5, l_nc_prime=1.0),
        4, 0.15, 4,
    )
    assert float(err_s) == want.error_l2
    assert float(rel_s) == want.relative_error
    assert int(dof_s) == want.dof


@pytest.mark.parametrize(
    "flag, value, code, message",
    [
        ("--quad-order", "0", 2, "config error"),
        ("--quad-order", "257", 2, "config error"),
        ("--lnc", "inf", 1, "side length l_nc"),
    ],
)
def test_project_rejects_bad_options(capsys, flag, value, code, message):
    got, out, err = run_cli(
        ["project", "--k", "16", "--alpha", "2.4", "--p", "4", flag, value], capsys
    )
    assert got == code
    assert out == ""
    assert message in err


CONFIG_OK = """\
# baseline sweep
k_values = 16
alpha_values = 2.0, 2.35619449019234
p_values = 2, 3
sigma = 0.15
output = {out}
"""


def test_experiment_run_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    cfg_a = tmp_path / "a.conf"
    cfg_a.write_text(CONFIG_OK.format(out=out_a), encoding="ascii")
    code, out, _ = run_cli(["experiment", str(cfg_a)], capsys)
    assert code == 0
    assert out == f"wrote 4 rows to {out_a}\n"
    lines = out_a.read_text(encoding="ascii").strip().split("\n")
    assert len(lines) == 5

    out_b = tmp_path / "b.csv"
    code, _, _ = run_cli(["experiment", str(cfg_a), "--output", str(out_b)], capsys)
    assert code == 0
    assert out_b.read_bytes() == out_a.read_bytes()


def test_experiment_malformed_key(tmp_path, capsys):
    out_file = tmp_path / "never.csv"
    cfg = tmp_path / "bad.conf"
    cfg.write_text(f"k_values = 16\nalpha_valves = 2.0\noutput = {out_file}\n", encoding="ascii")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("quad_order", "0"),
        ("quad_order", "257"),
        ("parallelism", "0"),
        ("k_values", "nan"),
        ("l_nc", "inf"),
    ],
)
def test_experiment_rejects_bad_run_options_before_any_row(tmp_path, capsys, key, value):
    out_file = tmp_path / "never.csv"
    values = {"k_values": "16", "alpha_values": "2.0", "p_values": "2", "output": out_file}
    values[key] = value
    cfg = tmp_path / "bad.conf"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="ascii")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert not out_file.exists()


def test_config_schema_is_the_grid_plus_run_options():
    run_options = {"quad_order", "parallelism", "output"}
    grid_fields = {f.name for f in dataclasses.fields(ExperimentGrid)}
    assert set(_CONFIG_SCHEMA) - run_options == grid_fields


# Documented ranges of the config values, and values on either side of them.
_SPECIALS = (math.nan, math.inf, -math.inf, 0.0)
_NONPOSITIVE = st.one_of(st.sampled_from(_SPECIALS), st.floats(-1e3, 0.0))
_VALID = {
    "k_values": st.floats(0.0, 1e3, exclude_min=True),
    "alpha_values": st.floats(0.5 * math.pi, math.pi, exclude_min=True),
    "l_nc": st.floats(0.0, 10.0, exclude_min=True),
    "l_nc_prime": st.floats(0.0, 10.0, exclude_min=True),
    "sigma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "c": st.floats(0.0, 1e3, exclude_min=True),
    "quad_order": st.one_of(st.none(), st.integers(1, 256)),
    "parallelism": st.integers(1, 4),
}
_INVALID = {
    "k_values": _NONPOSITIVE,
    "alpha_values": st.one_of(
        _NONPOSITIVE, st.floats(0.0, 0.5 * math.pi), st.floats(math.pi, 4.0, exclude_min=True)
    ),
    "l_nc": _NONPOSITIVE,
    "l_nc_prime": _NONPOSITIVE,
    "sigma": st.one_of(_NONPOSITIVE, st.floats(1.0, 1.5)),
    "c": _NONPOSITIVE,
    "quad_order": st.one_of(st.integers(-5, 0), st.integers(257, 300)),
    "parallelism": st.integers(-2, 0),
}


# Values at and just past the ends of each range, run on every test run
# whatever hypothesis draws; None holds in-range ends.
_EDGES = {
    None: [("alpha_values", math.pi), ("quad_order", 1), ("quad_order", 256)],
    **{key: [(key, v) for v in _SPECIALS] for key in ("k_values", "l_nc", "l_nc_prime", "c")},
    "alpha_values": [("alpha_values", v) for v in (*_SPECIALS, 0.5 * math.pi, 3.15)],
    "sigma": [("sigma", v) for v in (*_SPECIALS, 1.0)],
    "quad_order": [("quad_order", 0), ("quad_order", 257)],
    "parallelism": [("parallelism", 0)],
}
_BASE = {
    "k_values": 16.0, "alpha_values": 2.0, "l_nc": 1.5, "l_nc_prime": 1.0,
    "sigma": 0.15, "c": 1.0, "quad_order": None, "parallelism": 1,
}


def _in_documented_range(v):
    return (
        0.0 < v["k_values"] < math.inf
        and 0.5 * math.pi < v["alpha_values"] <= math.pi
        and 0.0 < v["l_nc"] < math.inf
        and 0.0 < v["l_nc_prime"] < math.inf
        and 0.0 < v["sigma"] < 1.0
        and 0.0 < v["c"] < math.inf
        and (v["quad_order"] is None or 1 <= v["quad_order"] <= 256)
        and v["parallelism"] >= 1
    )


def _check_experiment_exit_code(values):
    # hypothesis rejects function-scoped fixtures, so no tmp_path or capsys here
    with tempfile.TemporaryDirectory() as tmp:
        out_file = os.path.join(tmp, "sweep.csv")
        lines = [f"{key} = {val!r}\n" for key, val in values.items() if val is not None]
        cfg = os.path.join(tmp, "sweep.conf")
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write("".join(lines) + f"p_values = 2\noutput = {out_file}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["experiment", cfg])
        if _in_documented_range(values):
            assert code == 0, err.getvalue()
            with open(out_file, encoding="ascii") as fh:
                assert len(fh.read().splitlines()) == 2
        else:
            assert code == 2, err.getvalue()
            assert "config error" in err.getvalue()
            assert out.getvalue() == ""
            assert not os.path.exists(out_file)


@pytest.mark.parametrize("broken", [None, *_VALID])
def test_experiment_exits_2_exactly_on_out_of_range_values(broken):
    # every value in its range except `broken`, which is drawn outside it
    values = st.fixed_dictionaries(
        {key: (_INVALID if key == broken else _VALID)[key] for key in _VALID}
    )
    check = given(values=values)(_check_experiment_exit_code)
    for key, value in _EDGES[broken]:
        check = example(values={**_BASE, key: value})(check)
    check = settings(derandomize=True, database=None, max_examples=6, deadline=None)(check)
    # hypothesis caches the constants of local modules under its home directory,
    # ./.hypothesis unless told otherwise; keep that cache out of the working tree
    with tempfile.TemporaryDirectory() as home:
        configuration.set_hypothesis_home_dir(home)
        try:
            check()
        finally:
            configuration.set_hypothesis_home_dir(None)


def test_experiment_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(["experiment", str(tmp_path / "absent.conf")], capsys)
    assert code == 2
    assert "config error" in err


def test_parse_config():
    values = parse_config(
        "k_values=4,16 # ladder\nalpha_values=2.0\np_values=2\noutput=o.csv\nparallelism=2\n"
    )
    assert values["k_values"] == (4.0, 16.0)
    assert values["p_values"] == (2,)
    assert values["parallelism"] == 2
    with pytest.raises(ConfigError):
        parse_config("k_values=4\nk_values=5\nalpha_values=2\np_values=2\noutput=o\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("k_values=4\nalpha_values=2\np_values=two\noutput=o\n")
    with pytest.raises(ConfigError):
        parse_config("k_values=4\n")


def test_cert_reports_bound(capsys):
    code, out, _ = run_cli(["cert"], capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in out.strip().split(","))
    assert float(fields["c_upper"]) == 1.59
    assert 0.0 < float(fields["max_observed"]) <= 1.59
    assert int(fields["n_samples"]) == 10000


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shadowhp", "eval", "fr", "1.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    re, im = (float(x) for x in proc.stdout.strip().split(","))
    want = fresnel_fr(1.5)
    assert (re, im) == (want.real, want.imag)

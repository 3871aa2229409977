"""Command-line interface: output formats, exit codes, config handling."""

import contextlib
import dataclasses
import hashlib
import io
import json
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
from shadowhp.errors import ConfigError, DomainError
from shadowhp.experiments import ExperimentGrid
from shadowhp.hpspace import MAX_LAYERS, best_approx_error
from shadowhp.specfun import MAX_SAMPLES, fresnel_fr

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


@pytest.mark.parametrize("fn", ["fr", "F"])
def test_eval_fr_and_f_reject_degrees(capsys, fn):
    # the argument is a complex number, not an angle: --degrees would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["eval", fn, "1", "2", "--degrees"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--degrees" in captured.err


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


@pytest.mark.parametrize("fn", ["g", "h"])
def test_eval_s_takes_at_most_two_values(capsys, fn):
    tail = ["--R", "1", "--beta", "2", "--k", "4"]
    code, out, err = run_cli(["eval", fn, "--s", "1", "2", "3", *tail], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err and "--s" in err
    code_1, out_1, _ = run_cli(["eval", fn, "--s", "1", *tail], capsys)
    code_2, out_2, _ = run_cli(["eval", fn, "--s", "1", "0", *tail], capsys)
    assert code_1 == code_2 == 0
    assert out_1 == out_2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["eval", "fr", "1e200", "0"], "z = (1e+200+0j)"),
        (["eval", "h", "--s", "1.2e154", "--R", "1", "--beta", "2", "--k", "5"],
         "s = (1.2e+154+0j)"),
        (["eval", "g", "--s", "1.2e154", "--R", "1", "--beta", "2", "--k", "5"],
         "s = (1.2e+154+0j)"),
        (["eval", "psi_go", "--s", "1e300", "--k", "1e300", "--alpha", "3", "--lnc", "1.5",
          "--lncp", "1"], "s = 1e+300, k = 1e+300"),
        (["eval", "E", "--r", "1e300", "--psi", "1", "--k", "1e300"],
         "k = 1e+300, r = 1e+300, psi = 1.0"),
    ],
    ids=["fr", "h", "g", "psi_go", "E"],
)
def test_eval_overflow_is_a_domain_error(capsys, argv, named):
    # these printed nan or 0, or died with a traceback
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("domain error:") and named in err
    assert "Traceback" not in err


def test_eval_v_negative_s_exit_code(capsys):
    code, out, err = run_cli(
        ["eval", "V", "--s", "-0.5", "--k", "16", "--alpha", "2.4",
         "--lnc", "1.5", "--lncp", "1"],
        capsys,
    )
    assert code == 1
    assert "domain error" in err


_G_TAIL = ["--R", "1", "--beta", "2", "--k", "5"]
_V_TAIL = ["--k", "16", "--alpha", "2.4", "--lnc", "1.5", "--lncp", "1"]


@pytest.mark.parametrize("number", ["-1e-3", "-1E+2", "-3e-1", "-.5e1"])
@pytest.mark.parametrize(
    "command, tail", [(["eval", "g"], _G_TAIL), (["eval", "h"], _G_TAIL), (["eval", "V"], _V_TAIL)]
)
def test_negative_numbers_with_an_exponent_are_values(capsys, command, tail, number):
    # argparse took -1e-3 for an option and exited 2 with a usage error
    spaced = run_cli([*command, "--s", number, *tail], capsys)
    joined = run_cli([*command, f"--s={number}", *tail], capsys)
    assert spaced == joined
    # V is defined for s >= 0 only
    assert spaced[0] == (1 if command[1] == "V" else 0)
    if command[1] != "V":
        decimal = repr(float(number))
        complex_s = run_cli([*command, "--s", number, "-2e-1", *tail], capsys)
        assert complex_s == run_cli([*command, "--s", decimal, "-0.2", *tail], capsys)
        assert complex_s[0] == 0


def test_eval_fr_and_region_take_a_negative_number_with_an_exponent(capsys):
    code, out, err = run_cli(["eval", "fr", "-1e-3", "0"], capsys)
    assert (code, err) == (0, "")
    real, imag = (float(x) for x in out.strip().split(","))
    want = fresnel_fr(-1e-3)
    assert (real, imag) == (want.real, want.imag)
    argv = ["region", "--R", "1", "--beta", "2", "--nx", "2", "--ny", "1"]
    code, out, err = run_cli([*argv, "--re-min", "-1e-1"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("-0.10000000000000001,")


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


@pytest.mark.parametrize(
    "box",
    [
        ["--re-max", "inf"],
        ["--im-min=-inf"],
        ["--re-min", "nan"],
        # finite bounds whose span overflows
        ["--re-min=-1e308", "--re-max=1e308"],
        ["--im-min=-1e308", "--im-max=1e308"],
        # a finite span whose grid steps overflow: (re_max - re_min) * i
        ["--re-min", "0", "--re-max", "1.7e308"],
    ],
)
def test_region_box_must_be_finite(tmp_path, capsys, box):
    out_file = tmp_path / "cloud.csv"
    code, out, err = run_cli(
        ["region", "--R", "1", "--beta", "1", *box, "--nx", "4", "--ny", "3",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bounding box")
    assert not out_file.exists()


#: sha256 of the `region` CSV of small configs, as the seed formula wrote them
_REGION_SHA256 = [
    (["--R", "1", "--beta", "1", "--nx", "9", "--ny", "7"],
     "b796d6205593f965d61ade0e6fe2e9d4584b7469fd051236af255f48e87fc8c7"),
    # no grid point lies in the ellipse, and the cuts pass through grid points
    (["--R", "1", "--beta", repr(0.5 * PI), "--nx", "9", "--ny", "9"],
     "9f0822eb7bdb5f8c45e432519a4d8cd84c9e5a45fb4956c9d702cd7a47e1742b"),
    (["--R", "1.3", "--beta", "2", "--re-min", "-2.5", "--re-max", "1.5",
      "--im-min", "-1.5", "--im-max", "2.5", "--nx", "11", "--ny", "6"],
     "a7d43763a2a158fa1d5dad8f1fe1768038df01984063d146f9a5ce725664394b"),
    (["--R", "0.8", "--beta", "2.5", "--nx", "1", "--ny", "5"],
     "22c8e924c23974cde370b277eb6a5b584a9a5976a5b3ad7ce3f374f6b2c0a705"),
    (["--R", "2", "--beta", "0.7", "--re-min", "-1", "--re-max", "3", "--nx", "6", "--ny", "1"],
     "09c02f554e204301d547820a88d4ada3fb564b3da0cec3059018995d4d8f01ec"),
]


@pytest.mark.parametrize("argv, digest", _REGION_SHA256)
def test_region_csv_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(["region", *argv], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_region_labels_each_point_with_one_call(monkeypatch, capsys):
    # the benchmark traces region_label where the command looks it up, and
    # counts one call per point
    import shadowhp.cli

    calls = []
    label = shadowhp.cli.region_label

    def counted(s, geo):
        calls.append(s)
        return label(s, geo)

    monkeypatch.setattr(shadowhp.cli, "region_label", counted)
    code, out, _ = run_cli(["region", "--R", "1", "--beta", "2", "--nx", "7", "--ny", "5"], capsys)
    assert code == 0
    assert len(calls) == 35
    assert len(set(calls)) == 35
    assert len(out.splitlines()) == 1 + 35


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


def test_region_output_to_dev_null(capsys):
    argv = ["region", "--R", "1", "--beta", "2", "--nx", "3", "--ny", "2"]
    code, out, err = run_cli([*argv, "--output", os.devnull], capsys)
    assert (code, out, err) == (0, "", "")


def test_region_unwritable_output_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing-dir" / "x.csv", tmp_path):
        argv = ["region", "--R", "1", "--beta", "2", "--nx", "2", "--ny", "2"]
        code, out, err = run_cli([*argv, "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write output {str(target)!r}: ")
        assert err.count("\n") == 1


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


def test_project_elements(capsys):
    argv = ["project", "--k", "16", "--alpha", repr(PI), "--p", "8", "--n", "8"]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, err = run_cli([*argv, "--elements"], capsys)
    assert (code, err) == (0, "")
    first, *lines = out.splitlines()
    assert first + "\n" == plain
    res = best_approx_error(ShadowConfig(k=16.0, alpha=PI, l_nc=1.5, l_nc_prime=1.0), 8, 0.15, 8)
    assert len(lines) == len(res.element_err2)
    rows = [line.split(",") for line in lines]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    a, b, err2, share = ([float(r[i]) for r in rows] for i in range(1, 5))
    assert a[0] == 0.0 and b[-1] == 1.5 and a[1:] == b[:-1]
    assert err2 == list(res.element_err2)
    assert math.fsum(share) == pytest.approx(1.0, abs=1e-12)
    worst = max(range(len(rows)), key=share.__getitem__)
    assert worst == res.worst_element[0]
    assert (a[worst], b[worst]) == pytest.approx((0.225, 1.5), rel=1e-12)
    assert share[worst] > 0.9999


@pytest.mark.parametrize(
    "flag, value, code, message",
    [
        ("--quad-order", "0", 2, "config error"),
        ("--quad-order", "257", 2, "config error"),
        ("--quad-order", "2", 2, "quad_order for degree 4 must be an integer in [5, 256], got 2"),
        ("--p", "121", 2, "quad_order (the default 2p + 16) for degree 121 must be an integer"),
        ("--lnc", "inf", 1, "side length l_nc"),
        ("--c", "nan", 2, "layer constant c"),
        ("--c", "inf", 2, "layer constant c"),
        ("--c", "0", 2, "layer constant c"),
        ("--c", "-3", 2, "layer constant c"),
        ("--n", "0", 2, "layer count must be an integer >= 1, got 0"),
        ("--n", str(MAX_LAYERS + 1), 2, f"layer count {MAX_LAYERS + 1} exceeds MAX_LAYERS"),
        ("--n", "80000", 2, "exceeds MAX_LAYERS"),
        ("--n", "400", 2, "400 layers at grading 0.15 put the finest point at 0.0"),
        ("--sigma", "1e-200", 2, "4 layers at grading 1e-200 put the finest point at 0.0"),
        ("--c", str(MAX_LAYERS / 4 + 1), 2, "asks for more than MAX_LAYERS"),
        ("--c", "1e308", 2, "asks for more than MAX_LAYERS"),
        ("--p", "-1", 2, "degree must be a nonnegative integer, got -1"),
        ("--sigma", "1.5", 2, "grading must lie in (0, 1), got 1.5"),
        ("--sigma", "0", 2, "grading must lie in (0, 1), got 0.0"),
    ],
)
def test_project_rejects_bad_options(capsys, flag, value, code, message):
    argv = ["project", "--k", "16", "--alpha", "2.4", "--p", "4", flag, value]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert out == ""
    assert message in err
    assert err.startswith("config error" if code == 2 else "domain error")


def test_config_errors_are_domain_errors():
    # library callers that catch DomainError also catch a bad run option
    assert issubclass(ConfigError, DomainError)


def test_project_rejects_both_c_and_n(capsys):
    # --n overrides the depth that --c sets, so giving both would ignore --c
    with pytest.raises(SystemExit) as exc:
        main(["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--c", "7", "--n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n: not allowed with argument --c" in captured.err


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


@pytest.mark.parametrize("old", [b"stale row\n" * 500, b"k\n"], ids=["longer", "shorter"])
def test_experiment_rewrites_an_existing_output(tmp_path, capsys, old):
    fresh = tmp_path / "fresh.csv"
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out=fresh), encoding="ascii")
    assert run_cli(["experiment", str(cfg)], capsys)[0] == 0
    rerun = tmp_path / "rerun.csv"
    rerun.write_bytes(old)
    assert len(old) != len(fresh.read_bytes())
    assert run_cli(["experiment", str(cfg), "--output", str(rerun)], capsys)[0] == 0
    assert rerun.read_bytes() == fresh.read_bytes()


def test_experiment_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing-dir" / "x.csv"
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out=missing), encoding="ascii")
    for override, target in (([], missing), (["--output", str(tmp_path)], tmp_path)):
        code, out, err = run_cli(["experiment", str(cfg), *override], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write output {str(target)!r}: ")
        assert err.count("\n") == 1


def test_experiment_checks_its_output_before_any_row(tmp_path, capsys, monkeypatch):
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out="missing-dir/x.csv"), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot write output 'missing-dir/x.csv': ")
    assert calls == []


def test_experiment_output_with_a_nul_byte_exits_2_before_any_row(tmp_path, capsys, monkeypatch):
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out="a\0b.csv"), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: cannot write output 'a\\x00b.csv': embedded null byte\n"
    assert calls == []


def test_experiment_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "a.conf"
    cfg.write_bytes(b"k_values=16\xff\n")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot read config {str(cfg)!r}: 'utf-8' codec")
    assert err.count("\n") == 1


def test_experiment_output_is_written_only_after_the_sweep(tmp_path, capsys, monkeypatch):
    # the early check neither creates a new output nor truncates an old one
    import shadowhp.cli

    seen = []
    run_grid = shadowhp.cli.run_grid

    def spy(*args, **kwargs):
        seen.append(target.read_bytes() if target.exists() else None)
        return run_grid(*args, **kwargs)

    monkeypatch.setattr(shadowhp.cli, "run_grid", spy)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"previous run\n")
    cfg = tmp_path / "a.conf"
    for target in (new, old):
        cfg.write_text(CONFIG_OK.format(out=target), encoding="ascii")
        code, _, err = run_cli(["experiment", str(cfg)], capsys)
        assert code == 0, err
    assert seen == [None, b"previous run\n"]
    assert old.read_bytes() == new.read_bytes()


def test_experiment_records_a_mesh_underflow_as_a_failed_row(tmp_path, capsys):
    # project rejects 400 layers at grading 0.15 up front (exit 2); in a
    # sweep the same depth fails its own row and the run goes on
    out_file = tmp_path / "deep.csv"
    cfg = tmp_path / "deep.conf"
    cfg.write_text(
        f"k_values = 16\nalpha_values = 2.4\np_values = 2, 8\nc = 50\noutput = {out_file}\n",
        encoding="ascii",
    )
    code, out, _ = run_cli(["experiment", str(cfg)], capsys)
    assert code == 0
    assert out == f"wrote 2 rows to {out_file} (1 failed)\n"
    rows = out_file.read_text(encoding="ascii").splitlines()[1:]
    assert rows[0].endswith(",ok")
    assert rows[1].endswith(
        ",failed: DomainError: 400 layers at grading 0.15 put the finest point at 0.0"
    )


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
        ("quad_order", "2"),
        ("parallelism", "0"),
        ("k_values", "nan"),
        ("l_nc", "inf"),
        ("k_values", "16, 16"),
        ("alpha_values", "2.0, 2.0"),
        ("p_values", "2, 2"),
        ("c", str(MAX_LAYERS / 2 + 1)),
        ("c", "1e308"),
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k_values", "16, inf", "wavenumber k must be finite and positive, got inf"),
        ("alpha_values", "2.0, 3.5", "alpha values must lie in (pi/2, pi], got 3.5"),
        ("l_nc", "nan", "side length l_nc must be finite and positive, got nan"),
        ("l_nc_prime", "-1", "side length l_nc_prime must be finite and positive, got -1.0"),
    ],
)
def test_experiment_names_a_bad_grid_value(tmp_path, capsys, key, value, message):
    values = {"k_values": "16", "alpha_values": "2.0", "p_values": "2"}
    values[key] = value
    cfg = tmp_path / "bad.conf"
    lines = "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg.write_text(lines + f"output = {tmp_path / 'never.csv'}\n", encoding="ascii")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_config_schema_is_the_grid_plus_run_options():
    run_options = {"parallelism", "output"}
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
    # p_values = 2, so c p stays within the layer cap
    "c": st.floats(0.0, MAX_LAYERS / 2, exclude_min=True),
    # p_values = 2, so an explicit rule size lies in [p + 1, 256]
    "quad_order": st.one_of(st.none(), st.integers(3, 256)),
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
    "c": st.one_of(_NONPOSITIVE, st.floats(MAX_LAYERS / 2, 1e308, exclude_min=True)),
    "quad_order": st.one_of(st.integers(-5, 2), st.integers(257, 300)),
    "parallelism": st.integers(-2, 0),
}


# Values at and just past the ends of each range, run on every test run
# whatever hypothesis draws; None holds in-range ends.
_EDGES = {
    None: [
        ("alpha_values", math.pi), ("quad_order", 3), ("quad_order", 256), ("c", MAX_LAYERS / 2)
    ],
    **{key: [(key, v) for v in _SPECIALS] for key in ("k_values", "l_nc", "l_nc_prime")},
    "c": [("c", v) for v in (*_SPECIALS, math.nextafter(MAX_LAYERS / 2, math.inf))],
    "alpha_values": [("alpha_values", v) for v in (*_SPECIALS, 0.5 * math.pi, 3.15)],
    "sigma": [("sigma", v) for v in (*_SPECIALS, 1.0)],
    "quad_order": [("quad_order", 2), ("quad_order", 257)],
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
        and 0.0 < v["c"] <= MAX_LAYERS / 2
        and (v["quad_order"] is None or 3 <= v["quad_order"] <= 256)
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


def test_cert_failure_exits_3(capsys, monkeypatch):
    import shadowhp.specfun

    monkeypatch.setattr(shadowhp.specfun, "_C_UPPER", 1.0)
    code, out, err = run_cli(["cert", "--n-samples", "1000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("certification failure: |F(")
    assert err.endswith("exceeds the sector bound 1.0\n")


@pytest.mark.parametrize(
    "n_samples, code", [(999, 2), (0, 2), (MAX_SAMPLES + 1, 2), (1000, 0)]
)
def test_cert_sample_size_is_a_run_option(capsys, n_samples, code):
    got, out, err = run_cli(["cert", "--n-samples", str(n_samples)], capsys)
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (
            f"config error: n_samples must lie in [1000, {MAX_SAMPLES}], got {n_samples}\n"
        )


_STARTUP_PROBE = """
import contextlib, io, json, sys
import shadowhp
from shadowhp.cli import main


MODULES = (
    "scipy.integrate",
    "scipy.special",
    "scipy._lib._array_api",
    "scipy.special._special_ufuncs",
    "concurrent.futures.process",
)


def loaded():
    return [m for m in MODULES if m in sys.modules]


kernel_free, commands = json.loads(sys.argv[1])
report = {"backend": shadowhp.KERNEL_BACKEND, "on_import": loaded()}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    report["kernel_free_codes"] = [main(argv) for argv in kernel_free]
    report["after_kernel_free"] = loaded()
    report["codes"] = [main(argv) for argv in commands]
report["after_commands"] = loaded()
from shadowhp.specfun import fresnel_fr, fresnel_oracle
z = 0.5 + 0.5j
report["oracle_rel"] = abs(fresnel_oracle(z) - fresnel_fr(z)) / abs(fresnel_fr(z))
report["after_oracle"] = loaded()
print(json.dumps(report))
"""

#: configs of `experiment` runs that exit 2, by file name
_BAD_CONFIGS = {
    "low-quad.conf": "k_values = 16\nalpha_values = 2.4\np_values = 2, 8\nquad_order = 5\n",
    "repeat.conf": "k_values = 16, 16\nalpha_values = 2.4\np_values = 2\n",
}

#: commands that never evaluate w(z), with their exit codes
_KERNEL_FREE = [
    (["region", "--R", "1", "--beta", "2", "--nx", "4", "--ny", "3"], 0),
    (["region", "--R", "1", "--beta", "2", "--re-min=-1e308", "--re-max=1e308"], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--n", str(MAX_LAYERS + 1)], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--sigma", "1.5"], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--n", "0"], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--n", "400"], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--quad-order", "2"], 2),
    (["project", "--k", "16", "--alpha", "2.4", "--p", "121"], 2),
    (["cert", "--n-samples", "999"], 2),
    (["cert", "--n-samples", str(MAX_SAMPLES + 1)], 2),
    *((["experiment", name], 2) for name in _BAD_CONFIGS),
]


@pytest.fixture(scope="module")
def startup_report(tmp_path_factory):
    """What a fresh interpreter loads as it imports the package, runs the
    kernel-free commands, then one of each command (`eval F` first), then
    the test oracle.
    """
    tmp = tmp_path_factory.mktemp("startup")
    for name, text in _BAD_CONFIGS.items():
        (tmp / name).write_text(text + f"output = {tmp / 'never.csv'}\n")
    kernel_free = [
        [str(tmp / a) if a in _BAD_CONFIGS else a for a in argv] for argv, _ in _KERNEL_FREE
    ]
    conf = tmp / "sweep.conf"
    conf.write_text(
        f"k_values = 16\nalpha_values = 2.3\np_values = 2, 3\noutput = {tmp / 'sweep.csv'}\n"
    )
    commands = [
        ["eval", "F", "1", "2"],
        ["experiment", str(conf)],
        ["cert", "--n-samples", "1000"],
        ["region", "--R", "1", "--beta", "2", "--nx", "4", "--ny", "3"],
        ["project", "--k", "16", "--alpha", "2.4", "--p", "4"],
        ["eval", "V", "--s", "0.5", "--k", "16", "--alpha", "2.4", "--lnc", "1.5", "--lncp", "1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE,
         json.dumps([kernel_free, commands])],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["kernel_free_codes"] == [code for _, code in _KERNEL_FREE]
    assert report["codes"] == [0] * len(commands)
    assert not (tmp / "never.csv").exists()
    return report


def test_cli_commands_do_not_load_scipy_integrate(startup_report):
    # scipy.integrate is a large share of a command's start-up, and only the
    # test oracle needs it
    assert "scipy.integrate" not in startup_report["after_commands"]
    # the import is deferred, not removed: the oracle still runs and agrees
    assert startup_report["oracle_rel"] <= 1e-12
    assert "scipy.integrate" in startup_report["after_oracle"]


def test_commands_load_the_wofz_module_and_never_scipy_special(startup_report):
    # importing the package, reading its backend and running a command that
    # never evaluates w load no scipy module; the commands that evaluate w
    # load scipy's compiled ufunc module, never the scipy.special package
    # (whose __init__ pulls in scipy's array-API layer) nor the process pool
    assert startup_report["backend"] == "scipy"
    assert startup_report["on_import"] == []
    assert startup_report["after_kernel_free"] == []
    assert startup_report["after_commands"] == ["scipy.special._special_ufuncs"]


def test_cli_commands_do_not_load_the_process_pool(startup_report):
    # the probe's sweep is too small to repay a pool, and only a pool needs
    # concurrent.futures.process and the multiprocessing it pulls in
    assert "concurrent.futures.process" not in startup_report["after_commands"]


_POOL_PROBE = """
import concurrent.futures, json, sys
from shadowhp import experiments, kernel

KERNEL = ("scipy.special._special_ufuncs", "scipy.special")


def loaded():
    return [m in sys.modules for m in KERNEL]


at_pool = []


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_pool.append(loaded())
        super().__init__(*args, **kwargs)


concurrent.futures.ProcessPoolExecutor = RecordingPool
kernel._usable_cores = lambda: 2
experiments._MIN_ROWS_PER_WORKER = 1
before = loaded()
grid = experiments.ExperimentGrid(k_values=(4.0, 16.0), alpha_values=(2.4,), p_values=(2,))
rows = experiments.run_grid(grid, parallelism=2)
print(json.dumps([before, at_pool, [r.status for r in rows]]))
"""


def test_pooled_grid_loads_the_kernel_before_forking():
    # forked workers inherit the parent's modules; without the preload each
    # worker would load the kernel module on its first row
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    before, at_pool, statuses = json.loads(proc.stdout)
    assert before == [False, False]
    assert at_pool == [[True, False]]
    assert statuses == ["ok", "ok"]


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

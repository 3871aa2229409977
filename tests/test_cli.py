"""Command-line interface: output formats, exit codes, config handling."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import types

import pytest
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.cli import build_parser, main
from shadowhp.commands import _CONFIG_SCHEMA, parse_config
from shadowhp.errors import ConfigError, DomainError
from shadowhp.experiments import ExperimentGrid
from shadowhp.hpspace import MAX_LAYERS, best_approx_error
from shadowhp.runio import MAX_SAMPLES
from shadowhp.specfun import fresnel_fr

PI = math.pi


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


#: each parser's argument table, --help text and one usage error (a
#: missing required argument; cert has none, so a missing value), captured
#: from the parser as it was before each subcommand got its arguments on
#: first use: a difference here is a change to the command line
with open(os.path.join(os.path.dirname(__file__), "cli_contract.json"), encoding="utf-8") as _fh:
    _CONTRACT = json.load(_fh)

#: runs [kind, path, argv] steps in one interpreter: "table" reads the
#: argument table of the parser at path, any other kind runs main(argv)
_CONTRACT_PROBE = """
import argparse, contextlib, io, json, sys
from shadowhp.cli import build_parser, main


def parser_at(path):
    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions if a.nargs == argparse.PARSER)
        parser = sub.choices[name]
    return parser


def table(path):
    parser = parser_at(path)
    return {
        "arguments": [
            {
                "option_strings": a.option_strings,
                "dest": a.dest,
                "type": getattr(a.type, "__name__", a.type),
                "default": a.default,
                "required": a.required,
                "nargs": a.nargs,
                "choices": None if a.choices is None else list(a.choices),
                "help": a.help,
                "metavar": a.metavar,
            }
            for a in parser._actions
        ],
        "exclusive": [
            [a.dest for a in group._group_actions] for group in parser._mutually_exclusive_groups
        ],
        "negative_number_is_a_value": bool(parser._negative_number_matcher.match("-1e-3")),
    }


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


print(json.dumps([table(path) if kind == "table" else run(argv)
                  for kind, path, argv in json.loads(sys.argv[1])]))
"""


def test_every_parser_keeps_its_arguments_help_and_usage_errors():
    # one interpreter, interleaved: each parser is first filled by its usage
    # error, and later steps reuse it filled
    parsers = _CONTRACT["parsers"]
    assert all(p["usage_error"][0] == 2 and p["usage_error"][1] == "" for p in parsers)
    steps, want = [], []

    def step(kind, parser):
        argv = [*parser["path"], "--help"] if kind == "help" else parser["usage"]
        steps.append([kind, parser["path"], argv])
        want.append(parser[kind])

    for parser in parsers:
        step("usage_error", parser)
    for parser in reversed(parsers):
        step("help", parser)
        step("table", parser)
    for parser in parsers:
        step("table", parser)
        step("usage_error", parser)
        step("help", parser)
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT_PROBE, json.dumps(steps)],
        capture_output=True,
        text=True,
        timeout=120,
        # a fixed width: argparse wraps its help to the terminal's
        env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if list(sys.version_info[:2]) != _CONTRACT["python"]:
        # argparse's help and error layout differs between Python versions
        tables = [i for i, (kind, _, _) in enumerate(steps) if kind == "table"]
        got, want = [got[i] for i in tables], [want[i] for i in tables]
    assert got == want


def test_each_subparser_is_filled_once_under_concurrent_parses(monkeypatch):
    import shadowhp.cli
    import shadowhp.commands

    commands = [
        ["project", "--k", "16", "--alpha", "2.4", "--p", "4"],
        ["eval", "V", "--s", "0.5", "--k", "16", "--alpha", "2.4", "--lnc", "1.5", "--lncp", "1"],
        ["region", "--R", "1", "--beta", "2"],
        ["cert"],
        ["experiment", "sweep.conf"],
        ["eval", "fr", "-1e-3"],
    ]
    want = [vars(build_parser().parse_args(argv)) for argv in commands]
    fills = []

    def counted(name, fill):
        def add_arguments(parser):
            fills.append(name)
            fill(parser)

        return add_arguments

    monkeypatch.setattr(
        shadowhp.cli, "_region_arguments", counted("region", shadowhp.cli._region_arguments)
    )
    for name, fill in list(shadowhp.commands._ARGUMENTS.items()):
        monkeypatch.setitem(shadowhp.commands._ARGUMENTS, name, counted(name, fill))
    n_threads, rounds = 8, 20
    got, errors = [], []

    def parse(parser, barrier):
        try:
            barrier.wait(timeout=60)
            got.extend((i, vars(parser.parse_args(argv))) for i, argv in enumerate(commands))
        except (Exception, SystemExit) as exc:  # argparse exits on a usage error
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            # a parser of its own, with no subparser made yet
            parser, barrier = build_parser.__wrapped__(), threading.Barrier(n_threads)
            threads = [
                threading.Thread(target=parse, args=(parser, barrier)) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sorted(fills) == sorted(["eval", "region", "project", "experiment", "cert"] * rounds)
    assert len(got) == rounds * n_threads * len(commands)
    assert all(ns == want[i] for i, ns in got)


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


def test_eval_f_where_the_rotation_overflows_is_one_line(capsys):
    # numpy's overflow warning came first, then a DomainError naming e^{i pi/4} z
    code, out, err = run_cli(["eval", "F", "1.7e308", "1.7e308"], capsys)
    assert (code, out) == (1, "")
    assert err == "domain error: e^(i pi/4) z overflows at z = (1.7e+308+1.7e+308j)\n"


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


@pytest.mark.parametrize("number", ["-1e-3", "-1E+2"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--alpha", "alpha must lie strictly inside (pi/2, 3pi/2), got "),
        ("--lnc", "side length l_nc must be finite and positive, got "),
    ],
)
def test_project_takes_a_negative_number_with_an_exponent(capsys, flag, message, number):
    # read as a value, the number is out of range: a domain error, not usage
    argv = ["project", "--k", "16", "--alpha", "2.4", "--p", "4", flag, number]
    want = (1, "", f"domain error: {message}{float(number)!r}\n")
    assert run_cli(argv, capsys) == want
    assert run_cli([*argv[:-2], f"{flag}={number}"], capsys) == want


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
        # an empty box
        ["--re-max=-2"],
        ["--im-min", "2"],
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
    (want,) = best_approx_error(
        ShadowConfig(k=16.0, alpha=float(repr(alpha)), l_nc=1.5, l_nc_prime=1.0),
        [4], 0.15, [4],
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
    cfg = ShadowConfig(k=16.0, alpha=PI, l_nc=1.5, l_nc_prime=1.0)
    (res,) = best_approx_error(cfg, [8], 0.15, [8])
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
        ("--n", "0", 2, "layer count must be an integer >= 1, got 0"),
        ("--n", str(MAX_LAYERS + 1), 2, f"layer count {MAX_LAYERS + 1} exceeds MAX_LAYERS"),
        ("--n", "80000", 2, "exceeds MAX_LAYERS"),
        ("--n", "400", 2, "400 layers at grading 0.15 put the finest point at 0.0"),
        ("--sigma", "1e-200", 2, "4 layers at grading 1e-200 put the finest point at 0.0"),
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


def test_project_says_a_tiny_target_underflows(capsys):
    # |V| on [0, 1.5] reaches 5.7e-163 here; only its squared norm is 0
    argv = ["project", "--k", "5e-324", "--alpha", "2.3", "--p", "2"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        "domain error: the target's squared L2 norm underflows to 0: relative error undefined\n"
    )


def test_project_refuses_a_target_whose_squares_are_subnormal(capsys):
    # at k = 1e-320 the squared norm of V has lost its digits; it printed 0,0,12
    argv = ["project", "--k", "1e-320", "--alpha", "2.5", "--p", "2"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("domain error: squared L2 error 0.0 or norm 6.1e-322 ")


def test_config_errors_are_domain_errors():
    # library callers that catch DomainError also catch a bad run option
    assert issubclass(ConfigError, DomainError)


def test_project_takes_its_depth_as_n_alone(capsys):
    # a layer constant is a sweep's rule for every p; one row names its n
    with pytest.raises(SystemExit) as exc:
        main(["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--c", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --c 2" in captured.err


def test_project_n_prints_what_the_layer_constant_printed(capsys):
    # the line that `--c 2` printed in 3.0.0: n = ceil(2 * 4) = 8
    argv = ["project", "--k", "16", "--alpha", "2.4", "--p", "4", "--n", "8"]
    assert run_cli(argv, capsys) == (
        0, "0.00059745428508006283,0.00013842336511666367,80\n", ""
    )


def test_project_names_where_r_rounds_to_zero(capsys):
    # alpha = pi/2 + 1e-8 puts s_sb near 1e8; at the point s_sb - s of the
    # node s = 0.0463 the radicand of r on the minus geometry cancels to 0,
    # though the distance is sqrt(s^2 + l_nc'^2), about 1.001
    argv = ["project", "--k", "16", "--alpha", "1.5707963367948966", "--p", "4"]
    assert run_cli(argv, capsys) == (
        1,
        "",
        "domain error: h(s) is undefined: r(s) rounds to 0 at s = (99999999.9491296+0j) "
        "for KnifeGeometry(R=99999999.9954237, beta=9.99999993922529e-09)\n",
    )


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
    code, out, err = run_cli(["experiment", str(cfg_a)], capsys)
    assert code == 0
    assert (out, err) == ("", f"wrote 4 rows to {out_a}\n")
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


def test_experiment_output_through_a_dangling_symlink_exits_2_before_any_row(
    tmp_path, capsys, monkeypatch
):
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    (tmp_path / "link.csv").symlink_to(tmp_path / "nodir" / "out.csv")
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out="link.csv"), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: cannot write output 'link.csv': No such file or directory\n"
    assert calls == []


def test_experiment_output_through_a_link_to_dotdot_past_a_missing_dir_exits_2(
    tmp_path, capsys, monkeypatch
):
    # os.path.realpath folded "nodir/.." away, and the write failed after the last row
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    (tmp_path / "dl").symlink_to("nodir/../out.csv")
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out="dl"), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: cannot write output 'dl': No such file or directory\n"
    assert calls == []
    assert not (tmp_path / "out.csv").exists()


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


def test_experiment_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # some editors start a UTF-8 file with U+FEFF, which is not part of the first key
    text = "k_values = 16\nalpha_values = 2.0\np_values = 2, 3\noutput = {out}\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    cfg = tmp_path / "a.conf"
    for out_file, mark in ((plain, b""), (marked, b"\xef\xbb\xbf")):
        cfg.write_bytes(mark + text.format(out=out_file).encode("ascii"))
        code, _, err = run_cli(["experiment", str(cfg)], capsys)
        assert code == 0, err
    assert marked.read_bytes() == plain.read_bytes()


def test_experiment_output_without_write_permission_exits_2_before_any_row(
    tmp_path, capsys, monkeypatch
):
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    cfg = tmp_path / "a.conf"
    old = tmp_path / "old.csv"
    old.write_bytes(b"previous run\n")
    # the error an unprivileged user gets; root may open any file for writing
    real_open = os.open

    def denied(path, *args, **kwargs):
        if os.fspath(path).startswith(str(tmp_path)):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", denied)
    for target in (old, tmp_path / "new.csv"):
        cfg.write_text(CONFIG_OK.format(out=target), encoding="ascii")
        code, out, err = run_cli(["experiment", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: cannot write output {str(target)!r}: Permission denied\n"
    assert calls == []
    assert old.read_bytes() == b"previous run\n"
    assert not (tmp_path / "new.csv").exists()


def test_experiment_output_is_written_only_after_the_sweep(tmp_path, capsys, monkeypatch):
    # the output is opened before the sweep: a new one exists, empty, and an
    # old one keeps its bytes until the CSV is written over them
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
    assert seen == [b"", b"previous run\n"]
    assert old.read_bytes() == new.read_bytes()


def test_experiment_whose_sweep_raises_leaves_its_output_unwritten(tmp_path, monkeypatch):
    import shadowhp.cli

    def broken(*args, **kwargs):
        raise KeyError("a bug in the sweep")

    monkeypatch.setattr(shadowhp.cli, "run_grid", broken)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"previous run\n")
    cfg = tmp_path / "a.conf"
    for target in (new, old):
        cfg.write_text(CONFIG_OK.format(out=target), encoding="ascii")
        with pytest.raises(KeyError, match="a bug in the sweep"):
            main(["experiment", str(cfg)])
    assert new.read_bytes() == b""
    assert old.read_bytes() == b"previous run\n"


def test_experiment_output_through_a_symlink_loop_exits_2_before_any_row(
    tmp_path, capsys, monkeypatch
):
    import shadowhp.experiments

    calls = []
    monkeypatch.setattr(
        shadowhp.experiments, "best_approx_error", lambda *a, **kw: calls.append(a)
    )
    (tmp_path / "a.csv").symlink_to("b.csv")
    (tmp_path / "b.csv").symlink_to("a.csv")
    cfg = tmp_path / "a.conf"
    cfg.write_text(CONFIG_OK.format(out="a.csv"), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "config error: cannot write output 'a.csv': Too many levels of symbolic links\n"
    )
    assert calls == []


def test_experiment_records_a_mesh_underflow_as_a_failed_row(tmp_path, capsys):
    # project exits 2 on 400 layers at grading 0.15; in a sweep the same
    # ConfigError fails its own row and the run goes on
    out_file = tmp_path / "deep.csv"
    cfg = tmp_path / "deep.conf"
    cfg.write_text(
        f"k_values = 16\nalpha_values = 2.4\np_values = 2, 8\nc = 50\noutput = {out_file}\n",
        encoding="ascii",
    )
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert code == 0
    assert (out, err) == ("", f"wrote 2 rows to {out_file} (1 failed)\n")
    rows = out_file.read_text(encoding="ascii").splitlines()[1:]
    assert rows[0].endswith(",ok")
    assert rows[1].endswith(
        ",failed: ConfigError: 400 layers at grading 0.15 put the finest point at 0.0"
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


_SMALL_GRID = "k_values = 16\nalpha_values = 2.4\np_values = 2, 3\n"


def test_the_retired_parallelism_key_changes_nothing(tmp_path, capsys):
    written = []
    for i, extra in enumerate(("", "parallelism = 2\n")):
        cfg, out_file = tmp_path / "run.conf", tmp_path / f"run{i}.csv"
        cfg.write_text(_SMALL_GRID + extra + f"output = {out_file}\n", encoding="ascii")
        assert run_cli(["experiment", str(cfg)], capsys) == (0, "", f"wrote 2 rows to {out_file}\n")
        written.append(out_file.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "value, message",
    [
        ("0", "parallelism must be an integer >= 1, got 0\n"),
        ("2.5", "line 4: bad value for 'parallelism': "),
    ],
)
def test_the_retired_parallelism_key_is_still_checked(tmp_path, capsys, value, message):
    never = tmp_path / "never.csv"
    cfg = tmp_path / "run.conf"
    cfg.write_text(_SMALL_GRID + f"parallelism = {value}\noutput = {never}\n", encoding="ascii")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {message}")
    assert not never.exists()


def test_config_schema_is_the_grid_plus_run_options():
    # parallelism is the one retired key: parse_config checks it and drops it
    retired = {"parallelism"}
    grid_fields = {f.name for f in dataclasses.fields(ExperimentGrid)}
    assert set(_CONFIG_SCHEMA) - retired - {"output"} == grid_fields


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
    # the retired key is checked and dropped: the grid's fields and output remain
    assert "parallelism" not in values
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
    import numpy as np

    import shadowhp.specfun

    monkeypatch.setattr(shadowhp.specfun, "big_f", lambda z: np.full(np.shape(z), 1.6 + 0j))
    code, out, err = run_cli(["cert", "--n-samples", "1000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("certification failure: |F(")
    assert err.endswith("| = 1.6 exceeds the sector bound 1.59\n")


@pytest.mark.parametrize(
    "n_samples, code", [(999, 2), (0, 2), (MAX_SAMPLES + 1, 2), (1000, 0)]
)
def test_cert_sample_size_is_a_run_option(capsys, n_samples, code):
    got, out, err = run_cli(["cert", "--n-samples", str(n_samples)], capsys)
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (
            f"config error: n_samples must be an integer in [1000, {MAX_SAMPLES}], "
            f"got {n_samples}\n"
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
    kernel-free commands, then one of each command (`eval F` first).
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
    # tests' quadrature oracle needs it
    assert "scipy.integrate" not in startup_report["after_commands"]


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
    # a sweep runs in one process, so no command needs
    # concurrent.futures.process or the multiprocessing it pulls in
    assert "concurrent.futures.process" not in startup_report["after_commands"]


_LAYER_PROBE = """
import contextlib, io, json, sys
import shadowhp.cli

HEAVY = ("numpy", "scipy", "dataclasses")
LAYERS = ("shadowhp.experiments", "shadowhp.hpspace", "shadowhp.amplitudes")


def loaded(modules):
    return [m for m in modules if m in sys.modules]


def package():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "shadowhp")


region, usage_error = json.loads(sys.argv[1])
report = {"on_import": loaded(HEAVY)}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    report["region"] = shadowhp.cli.main(region)
    report["after_region"] = loaded(HEAVY)
    for step, argv in (("help", ["--help"]), ("usage", usage_error)):
        try:
            shadowhp.cli.main(argv)
        except SystemExit as exc:
            report[step] = exc.code
        report["after_" + step] = loaded(HEAVY)
    report["package"] = package()
    report["cert"] = shadowhp.cli.main(["cert", "--n-samples", "1000"])
report["after_cert"] = loaded(HEAVY)
report["cert_layers"] = loaded(LAYERS)
report["package_after_cert"] = package()
print(json.dumps(report))
"""


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # region, --help and a usage error never build an array, and numpy's
    # import alone is most of their start-up; dataclasses (with the inspect,
    # ast and dis it loads) was a third of what is left; nor do they load
    # the other commands' module. cert runs specfun and the kernel, not the
    # sweep's layers, and loads w's compiled module without running scipy's
    # package __init__
    out = tmp_path / "region.csv"
    region = ["region", "--R", "1", "--beta", "2", "--nx", "4", "--ny", "3", "--output", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBE, json.dumps([region, ["region", "--R", "1"]])],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "on_import": [],
        "region": 0,
        "after_region": [],
        "help": 0,
        "after_help": [],
        "usage": 2,
        "after_usage": [],
        "package": [
            "shadowhp", "shadowhp.cli", "shadowhp.errors", "shadowhp.regions", "shadowhp.runio"
        ],
        "cert": 0,
        "after_cert": ["numpy", "dataclasses"],
        "cert_layers": [],
        "package_after_cert": [
            "shadowhp", "shadowhp._arrays", "shadowhp.cli", "shadowhp.commands",
            "shadowhp.errors", "shadowhp.kernel", "shadowhp.regions", "shadowhp.runio",
            "shadowhp.specfun",
        ],
    }
    assert len(out.read_text().splitlines()) == 1 + 4 * 3


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


def test_parse_config_takes_the_output_flag_in_place_of_the_key():
    grid = "k_values=4\nalpha_values=2.0\np_values=2\n"
    assert parse_config(grid, "flag.csv")["output"] == "flag.csv"
    assert parse_config(grid + "output=key.csv\n", "flag.csv")["output"] == "flag.csv"
    assert parse_config(grid + "output=key.csv\n")["output"] == "key.csv"
    with pytest.raises(ConfigError, match="^missing required keys: output$"):
        parse_config(grid)


def test_experiment_output_flag_needs_no_output_key(tmp_path, capsys):
    cfg = tmp_path / "no-output.conf"
    cfg.write_text("k_values = 16\nalpha_values = 2.4\np_values = 2\n", encoding="ascii")
    code, out, err = run_cli(["experiment", str(cfg)], capsys)
    assert (code, out, err) == (2, "", "config error: missing required keys: output\n")
    csv = tmp_path / "flag.csv"
    code, out, err = run_cli(["experiment", str(cfg), "--output", str(csv)], capsys)
    assert (code, out, err) == (0, "", f"wrote 1 rows to {csv}\n")
    assert csv.read_text(encoding="ascii").startswith("k,alpha,p,")


def _shadowhp(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, buffered=True):
    # standard output is buffered unless PYTHONUNBUFFERED is set; buffered, what a
    # failed write leaves behind is flushed once more at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "shadowhp", *argv],
        stdout=stdout,
        stderr=stderr,
        env=env,
        timeout=120,
    )


def test_experiment_to_dev_stdout_writes_the_csv_alone(tmp_path, capsys):
    cfg = tmp_path / "stdout.conf"
    cfg.write_text(
        "k_values = 16\nalpha_values = 2.4\np_values = 2, 3\noutput = /dev/stdout\n",
        encoding="ascii",
    )
    proc = _shadowhp("experiment", str(cfg))
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / "file.csv"
    assert run_cli(["experiment", str(cfg), "--output", str(csv)], capsys)[0] == 0
    assert proc.stdout == csv.read_bytes()
    assert proc.stderr == b"wrote 2 rows to /dev/stdout\n"


def _reader_closes_early(argv):
    """Run shadowhp with argv, read one line of its stdout and close the pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "shadowhp", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first_line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    return code, first_line, err


def test_a_reader_that_closes_early_ends_the_command_quietly():
    # 160 000 rows overfill the pipe, so the writer meets the closed end
    code, first_line, err = _reader_closes_early(
        ["region", "--R", "1", "--beta", "2", "--nx", "400", "--ny", "400"]
    )
    assert (code, first_line, err) == (141, b"re,im,in_cut,in_R,in_ellipse,in_S\n", b"")


def test_an_experiment_whose_output_reader_is_gone_exits_141(tmp_path):
    cfg = tmp_path / "pipe.conf"
    cfg.write_text(
        "k_values = 16\nalpha_values = 2.4\np_values = 2\noutput = /dev/stdout\n",
        encoding="ascii",
    )
    with subprocess.Popen(
        [sys.executable, "-m", "shadowhp", "experiment", str(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (141, b"")


_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(_FULL), reason="needs /dev/full")


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--R", "1", "--beta", "2", "--nx", "400", "--ny", "400", "--output", _FULL],
        ["region", "--R", "1", "--beta", "2", "--nx", "4", "--ny", "4", "--output", _FULL],
        ["experiment", "{cfg}"],
    ],
    ids=["region-large", "region-small", "experiment"],
)
def test_a_failed_write_to_an_output_file_exits_2(tmp_path, argv):
    cfg = tmp_path / "full.conf"
    cfg.write_text(
        f"k_values = 16\nalpha_values = 2.4\np_values = 2\noutput = {_FULL}\n", encoding="ascii"
    )
    proc = _shadowhp(*(a.format(cfg=cfg) for a in argv))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"config error: cannot write output '{_FULL}': No space left on device\n".encode()
    )


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--k", "16", "--alpha", "2.4", "--p", "2"],
        ["project", "--k", "16", "--alpha", "2.4", "--p", "2", "--elements"],
        ["region", "--R", "1", "--beta", "2", "--nx", "400", "--ny", "400"],
        ["eval", "fr", "0", "0"],
        ["cert", "--n-samples", "1000"],
    ],
    ids=["project", "project-elements", "region", "eval", "cert"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_failed_write_to_standard_output_exits_2(argv, buffered):
    with open(_FULL, "wb") as full:
        proc = _shadowhp(*argv, stdout=full, buffered=buffered)
    assert proc.returncode == 2
    # one line, and no second error from the interpreter's flush at exit
    assert proc.stderr == b"config error: cannot write output '<stdout>': No space left on device\n"


#: a cert whose sample exceeds the bound, run as `python -c` with the argv
_FAILING_CERT = """
import sys
import shadowhp.cli
from shadowhp.errors import CertificationError


def failing(n_samples):
    raise CertificationError("|F| exceeds the sector bound")


shadowhp.cli.sector_bound_cert = failing
sys.exit(shadowhp.cli.main(sys.argv[1:]))
"""

#: (argv, the exit code when standard error fails); "{cfg}" is a config
#: whose output is a file, "{cert}" runs _FAILING_CERT
_STDERR_CASES = [
    (["experiment", "{cfg}"], 2),
    (["project", "--k", "4", "--alpha", "2.5", "--p", "2", "--quad-order", "0"], 2),
    (["eval", "fr", "inf"], 1),
    (["{cert}", "cert", "--n-samples", "1000"], 3),
    # argparse's usage and error text, which argparse itself writes
    (["region", "--R", "1"], 2),
]
_STDERR_IDS = ["experiment-summary", "config-error", "domain-error", "cert-failure", "usage-error"]


def _stderr_case(tmp_path, argv, stderr):
    """Run one of _STDERR_CASES with its standard error set."""
    csv = tmp_path / "sweep.csv"
    cfg = tmp_path / "sweep.conf"
    cfg.write_text(f"k_values = 16\nalpha_values = 2.4\np_values = 2\noutput = {csv}\n")
    if argv[0] == "{cert}":
        cmd = [sys.executable, "-c", _FAILING_CERT, *argv[1:]]
    else:
        cmd = [sys.executable, "-m", "shadowhp", *(a.format(cfg=cfg) for a in argv)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr) as proc:
        if stderr is subprocess.PIPE:
            # a reader that is gone before the first write
            proc.stderr.close()
        out = proc.stdout.read()
        code = proc.wait(timeout=120)
    return code, out, csv


@needs_dev_full
@pytest.mark.parametrize("argv, code", _STDERR_CASES, ids=_STDERR_IDS)
def test_a_failed_write_to_standard_error_keeps_the_exit_code(tmp_path, argv, code):
    # a summary line has no error to report and exits 2; the report of an
    # error keeps that error's code
    with open(_FULL, "wb") as full:
        got, out, csv = _stderr_case(tmp_path, argv, full)
    assert (got, out) == (code, b"")
    if argv[0] == "experiment":
        # the whole CSV was written before the summary failed
        assert csv.read_text().count("\n") == 2


@pytest.mark.parametrize("argv", [argv for argv, _ in _STDERR_CASES], ids=_STDERR_IDS)
def test_a_closed_reader_of_standard_error_exits_141(tmp_path, argv):
    got, out, csv = _stderr_case(tmp_path, argv, subprocess.PIPE)
    assert (got, out) == (141, b"")
    if argv[0] == "experiment":
        assert csv.read_text().count("\n") == 2


@needs_dev_full
@pytest.mark.parametrize("argv", [["--help"], ["region", "--help"]], ids=["help", "region-help"])
def test_a_failed_write_of_the_help_exits_2(argv):
    # argparse drops a failed write of its own; the help goes through runio
    with open(_FULL, "wb") as full:
        proc = _shadowhp(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == b"config error: cannot write output '<stdout>': No space left on device\n"


def test_the_parser_writes_to_a_file_it_is_given(capsys):
    # only the standard streams go through runio; a file handed to
    # print_help or print_usage gets the text, as from argparse
    parser = build_parser()
    help_buf, usage_buf = io.StringIO(), io.StringIO()
    parser.print_help(help_buf)
    parser.print_usage(usage_buf)
    assert help_buf.getvalue() == parser.format_help()
    assert usage_buf.getvalue() == parser.format_usage()
    assert capsys.readouterr() == ("", "")


def test_a_closed_reader_of_the_help_exits_141():
    with subprocess.Popen(
        [sys.executable, "-m", "shadowhp", "--help"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        # a reader that is gone before the first write
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (141, b"")


@needs_dev_full
def test_failed_writes_to_both_standard_streams_exit_2():
    with open(_FULL, "wb") as full:
        proc = _shadowhp(
            "project", "--k", "16", "--alpha", "2.4", "--p", "2", stdout=full, stderr=full
        )
    assert proc.returncode == 2


def test_cert_and_experiment_call_the_functions_on_the_cli_module(tmp_path, monkeypatch, capsys):
    # the benchmark's tracer wraps these attributes of shadowhp.cli, so a
    # command that bound them at its module's import would run past it
    import shadowhp.cli

    assert run_cli(["eval", "fr", "0"], capsys)[0] == 0  # loads every command
    cert = types.SimpleNamespace(max_observed=1.25, c_upper=1.5, n_samples=1234)
    monkeypatch.setattr(shadowhp.cli, "sector_bound_cert", lambda n_samples: cert)
    assert run_cli(["cert"], capsys) == (0, "max_observed=1.25,c_upper=1.5,n_samples=1234\n", "")
    rows = [types.SimpleNamespace(status="ok")] * 3
    monkeypatch.setattr(shadowhp.cli, "run_grid", lambda grid: rows)
    monkeypatch.setattr(shadowhp.cli, "write_csv", lambda rows, out: out.write(f"{len(rows)}\n"))
    cfg = tmp_path / "a.conf"
    csv = tmp_path / "a.csv"
    cfg.write_text(f"k_values = 16\nalpha_values = 2.4\np_values = 2\noutput = {csv}\n")
    assert run_cli(["experiment", str(cfg)], capsys) == (0, "", f"wrote 3 rows to {csv}\n")
    assert csv.read_text() == "3\n"


def test_an_os_error_that_is_no_write_propagates(tmp_path, monkeypatch):
    import shadowhp.cli

    cfg = tmp_path / "a.conf"
    cfg.write_text(
        f"k_values = 16\nalpha_values = 2.4\np_values = 2\noutput = {tmp_path / 'a.csv'}\n",
        encoding="ascii",
    )

    def broken(grid):
        raise OSError(errno.EIO, "not a write")

    monkeypatch.setattr(shadowhp.cli, "run_grid", broken)
    with pytest.raises(OSError, match="not a write"):
        main(["experiment", str(cfg)])

"""Convergence-sweep harness: grids, rate fits, dip location, CSV."""

import hashlib
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import oracles
import pytest
from oracles import OracleError, dip_scan, fit_rate

import shadowhp.experiments as experiments
import shadowhp.hpspace as hpspace
from shadowhp.errors import ConfigError, DomainError
from shadowhp.experiments import (
    CSV_HEADER,
    ExperimentGrid,
    format_csv,
    layers_for_degree,
    run_grid,
    write_csv,
)
from shadowhp.hpspace import MAX_LAYERS
from shadowhp.runio import WriteError, open_output

SMALL = ExperimentGrid(k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 3, 4))


def test_layers_for_degree():
    assert layers_for_degree(0, 1.0) == 1
    assert layers_for_degree(3, 1.0) == 3
    assert layers_for_degree(3, 0.5) == 2
    assert layers_for_degree(5, 0.34) == 2
    assert layers_for_degree(3, 2.0) == 6
    assert layers_for_degree(4, MAX_LAYERS / 4) == MAX_LAYERS


def test_layer_cap_applies_to_the_grid_before_any_row():
    # the deepest row, not the first, decides: p = 2 fits at c = 300, p = 8 does not
    # a p beyond the double range too: c p overflowed its conversion to float
    for c, p_values in (
        (300.0, (2, 8)), (MAX_LAYERS / 2 + 1, (2,)), (1e308, (2,)), (1.0, (2, 10**400))
    ):
        with pytest.raises(ConfigError, match="asks for more than MAX_LAYERS"):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=p_values, c=c)
        with pytest.raises(ConfigError, match="asks for more than MAX_LAYERS"):
            layers_for_degree(max(p_values), c)
    # at the cap itself the grid is admitted, and its rows run
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), sigma=0.99, c=MAX_LAYERS / 2
    )
    (row,) = run_grid(grid)
    assert row.n_layers == MAX_LAYERS and row.status == "ok"


def test_grid_validation():
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(), alpha_values=(2.0,), p_values=(2,))
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(-1,))
    # a bool is an int to Python, but would write "True" into the CSV
    with pytest.raises(ConfigError, match="degree must be a nonnegative integer, got True$"):
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.4,), p_values=(True, 2))
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), sigma=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), c=bad)
    # each bad wavenumber, angle and side length raises ConfigError naming it,
    # also behind a good value of the same field
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match=rf"wavenumber k must be .*, got {bad}$"):
            ExperimentGrid(k_values=(16.0, bad), alpha_values=(2.0,), p_values=(2,))
        for name in ("l_nc", "l_nc_prime"):
            with pytest.raises(ConfigError, match=rf"side length {name} must .*, got {bad}$"):
                ExperimentGrid(
                    k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), **{name: bad}
                )
    for bad in (math.nan, math.inf, 0.0, 0.5 * math.pi, math.nextafter(math.pi, 4.0), 4.0):
        with pytest.raises(ConfigError, match=rf"alpha values must lie in .*, got {bad}$"):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0, bad), p_values=(2,))
    # a repeated value would write the same row twice
    for field in ("k_values", "alpha_values", "p_values"):
        values = {"k_values": (16.0,), "alpha_values": (2.0,), "p_values": (2,)}
        values[field] *= 2
        with pytest.raises(ConfigError, match=f"{field} repeats a value"):
            ExperimentGrid(**values)


def test_fit_rate_exact_exponential():
    pairs = [(p, 3.0 * math.exp(-0.7 * p)) for p in range(2, 9)]
    fit = fit_rate(pairs)
    assert fit.tau == pytest.approx(0.7, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == 1.0


def test_fit_rate_constant_input():
    fit = fit_rate([(p, 0.25) for p in range(2, 8)])
    assert fit.tau == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_rate_needs_enough_points():
    with pytest.raises(DomainError):
        fit_rate([(2, 1e-1), (3, 1e-2), (4, 1e-3)])
    # roundoff tail is excluded before counting
    with pytest.raises(DomainError):
        fit_rate([(2, 1e-1), (3, 1e-2), (4, 1e-3), (5, 1e-15), (6, 1e-16)])


@pytest.mark.parametrize(
    "pair", [(3, math.inf), (3, math.nan), (3, -math.inf), (math.inf, 1e-2), (math.nan, 1e-2)]
)
def test_fit_rate_refuses_a_pair_that_is_not_finite(pair):
    # a failed row's NaN error must not vanish in the roundoff filter, nor
    # an infinite one give tau = nan
    pairs = [(2, 1e-1), pair, (4, 1e-3), (5, 1e-4), (6, 1e-5)]
    with pytest.raises(DomainError, match=re.escape(f"got p = {pair[0]!r}, error = {pair[1]!r}")):
        fit_rate(pairs)


def test_fit_rate_needs_two_distinct_degrees():
    # one p fits no slope: polyfit read tau = 0.86, r^2 = 1 off a rank warning
    with pytest.raises(DomainError, match=r"distinct p above roundoff, got p = \[4.0\]"):
        fit_rate([(4, 1e-3)] * 4)
    with pytest.raises(DomainError, match="distinct p"):
        fit_rate([(4, 1e-3), (4, 2e-3), (4, 1e-2), (4, 5e-2), (5, 1e-15)])


def test_run_grid_canonical_order():
    grid = ExperimentGrid(
        k_values=(16.0, 4.0), alpha_values=(3.0, 2.0), p_values=(3, 2)
    )
    rows = run_grid(grid)
    keys = [(r.k, r.alpha, r.p) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 8
    assert all(r.status == "ok" for r in rows)
    assert all(r.n_layers == layers_for_degree(r.p, 1.0) for r in rows)


def test_run_grid_reruns_identically():
    first = run_grid(SMALL)
    again = run_grid(SMALL)
    assert first == again
    assert format_csv(first) == format_csv(again)


def test_run_grid_monotone_trend():
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 3, 4, 5, 6)
    )
    rows = run_grid(grid)
    errs = [r.error_l2 for r in rows]
    for nxt, cur in zip(errs[1:], errs[:-1]):
        assert nxt <= 1.05 * cur


def test_a_grid_of_numpy_integers_writes_the_same_csv():
    # numpy integers are counts, so a grid may take its degrees from np.arange
    ints = ExperimentGrid(k_values=(16.0,), alpha_values=(2.4,), p_values=tuple(range(2, 11)))
    arange = replace(ints, p_values=tuple(np.arange(2, 11)))
    want = format_csv(run_grid(ints))
    assert format_csv(run_grid(arange)) == want
    # a bool is never a count
    with pytest.raises(ConfigError, match="degree must be a nonnegative integer, got True"):
        replace(ints, p_values=(True, 2))


def test_run_grid_records_failures_and_continues():
    # at c = 50, p = 8 asks for 400 layers, whose finest point underflows to 0
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 8), c=50.0
    )
    rows = run_grid(grid)
    by_p = {r.p: r for r in rows}
    assert by_p[2].status == "ok"
    assert by_p[8].status.startswith("failed: ConfigError")
    assert "," not in by_p[8].status
    assert math.isnan(by_p[8].error_l2)
    assert by_p[8].dof == 0


def test_run_grid_rows_equal_row_by_row_rows():
    # at c = 50 the p = 8 row of every pair fails, and with it the pair's batch
    grid = ExperimentGrid(
        k_values=(16.0, 64.0),
        alpha_values=(2.0, 0.75 * math.pi, math.pi),
        p_values=(0, 2, 8),
        c=50.0,
    )
    keys = itertools.product(grid.k_values, grid.alpha_values, grid.p_values)
    rows = run_grid(grid)
    assert [r.status.split(":")[0] for r in rows] == ["ok", "ok", "failed"] * 6
    one_row = [replace(grid, k_values=(k,), alpha_values=(a,), p_values=(p,)) for k, a, p in keys]
    assert rows == [row for g in one_row for row in run_grid(g)]


@pytest.mark.parametrize(
    "grid",
    [
        ExperimentGrid(k_values=(1.7976931348623157e308,), alpha_values=(2.4,), p_values=(2,)),
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.4,), p_values=(2,), l_nc=1e300),
    ],
    ids=["k-max", "lnc-1e300"],
)
def test_run_grid_non_finite_errors_fail_the_row(grid):
    (row,) = run_grid(grid)
    assert row.status.startswith("failed: OverflowError")
    assert math.isnan(row.error_l2) and row.dof == 0


def test_run_grid_row_fails_where_h_overflows():
    # the side reaches past s = 9.5e153, where 2 r (r + R) overflows and h read 0
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=(2.4,), p_values=(2,), l_nc=1.2e154)
    (row,) = run_grid(grid)
    assert row.status.startswith("failed: OverflowError: h(s) overflows at s = ")
    assert math.isnan(row.error_l2) and row.dof == 0


def test_run_grid_projects_once_per_pair(monkeypatch):
    # every row of a pair goes through one l2_project call
    calls = []
    project = hpspace.l2_project
    monkeypatch.setattr(
        hpspace, "l2_project", lambda *args: calls.append(args[1]) or project(*args)
    )
    grid = replace(SMALL, k_values=(4.0, 16.0), alpha_values=(2.0, 2.5, math.pi))
    rows = run_grid(grid)
    assert len(rows) == 2 * 3 * 3
    assert len(calls) == 6
    assert all(len(spaces) == 3 for spaces in calls)


def test_run_grid_subnormal_row_names_k_and_s():
    alpha = float(np.nextafter(0.5 * math.pi, math.pi))
    grid = ExperimentGrid(
        k_values=(5e-324,), alpha_values=(alpha,), p_values=(2,), l_nc_prime=5e-324
    )
    (row,) = run_grid(grid)
    assert row.status.startswith("failed: DomainError: mu(s) is not finite at s = ")
    assert "for k = 5e-324" in row.status


def test_run_grid_records_a_subnormal_square_as_a_failed_row():
    # at k = 1e-320 the squared norm of V is subnormal and its digits are lost
    grid = ExperimentGrid(k_values=(1e-320, 1e-300), alpha_values=(2.5,), p_values=(2,))
    tiny, small = run_grid(grid)
    assert tiny.status == (
        "failed: DomainError: squared L2 error 0.0 or norm 6.1e-322 of the target "
        "is subnormal: digits lost"
    )
    assert math.isnan(tiny.error_l2) and tiny.dof == 0
    assert small.status == "ok"
    assert small.relative_error == pytest.approx(1.10582240197763e-3, rel=1e-12)


# no sweep row reaches the quadrature oracle, so an OracleError in a row is a bug
@pytest.mark.parametrize("error", [TypeError, OracleError])
def test_run_grid_propagates_bugs(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(experiments, "best_approx_error", broken)
    with pytest.raises(error, match="bug"):
        run_grid(SMALL)


def test_n_layers_is_the_requested_depth_and_dof_the_mesh_built():
    # the README's caveat: from n = 15 on, a shadow mesh at sigma = 0.15 and
    # l_nc = 1.5 keeps 15 layers a side, so these rows record depths 16, 20
    # and 40 for one 30-element mesh
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(8,))
    rows = [run_grid(replace(grid, c=c))[0] for c in (2.0, 2.5, 5.0)]
    assert [row.n_layers for row in rows] == [16, 20, 40]
    assert {(row.dof, row.error_l2) for row in rows} == {(9 * 30, rows[0].error_l2)}


@pytest.mark.parametrize(
    "p_values, quad_order",
    [
        pytest.param(SMALL.p_values, 0, id="0"),
        pytest.param(SMALL.p_values, 257, id="257"),
        # below p + 1 for the grid's largest degree, 4
        pytest.param(SMALL.p_values, 4, id="4"),
        # p = 121 needs the default rule 2p + 16 = 258
        pytest.param((2, 121), None, id="default-p121"),
    ],
)
def test_run_grid_rejects_bad_quad_order_before_any_row(monkeypatch, p_values, quad_order):
    # the grid holds the rule size, so building it raises, before any row
    calls = []
    monkeypatch.setattr(experiments, "best_approx_error", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="quad_order"):
        run_grid(replace(SMALL, p_values=p_values, quad_order=quad_order))
    assert calls == []


def test_dip_scan_locates_the_dip():
    alphas = tuple(float(a) for a in np.linspace(0.5 * math.pi, math.pi, 33)[1:])
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=alphas, p_values=(8,))
    result = dip_scan(grid, p=8)
    assert result.expected_alpha == pytest.approx(
        0.5 * math.pi + math.atan(4.0 / 9.0), rel=1e-15
    )
    assert result.alpha_min in alphas
    assert result.within_pi_32
    assert len(result.points) == 32


def test_dip_scan_keeps_the_grid_parameters():
    alphas = (1.7, 2.0, 2.3, 2.6)
    params = {"l_nc": 2.0, "l_nc_prime": 0.7, "sigma": 0.2, "c": 1.7, "quad_order": 14}
    grid = ExperimentGrid(
        k_values=(32.0, 8.0), alpha_values=alphas[::-1], p_values=(3,), **params
    )
    result = dip_scan(grid, p=6)
    rows = run_grid(
        ExperimentGrid(k_values=(8.0,), alpha_values=alphas, p_values=(6,), **params)
    )
    assert result.points == tuple((r.alpha, r.relative_error) for r in rows)
    defaults = run_grid(ExperimentGrid(k_values=(8.0,), alpha_values=alphas, p_values=(6,)))
    assert all(a.relative_error != b.relative_error for a, b in zip(rows, defaults))


@pytest.mark.parametrize(
    "errors, expected",
    [((5.0, 4.0, 3.0, 2.0), 3), ((1.0, 2.0, 3.0, 4.0), 0), ((3.0, 2.0, 2.0, 4.0), 1)],
    ids=["falling", "rising", "flat-bottom"],
)
def test_dip_scan_falls_back_to_the_global_minimum(monkeypatch, errors, expected):
    # no strict interior local minimum in the sampled landscape
    alphas = (1.7, 2.0, 2.3, 2.6)

    def fake_run_grid(grid):
        assert grid.alpha_values == alphas and grid.p_values == (8,)
        return [
            experiments.GridRow(16.0, a, 8, 8, 72, e, e, "ok") for a, e in zip(alphas, errors)
        ]

    monkeypatch.setattr(oracles, "run_grid", fake_run_grid)
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=alphas, p_values=(8,))
    result = dip_scan(grid, p=8)
    assert result.alpha_min == alphas[expected]
    assert result.points == tuple(zip(alphas, errors))


def test_dip_scan_raises_on_a_failed_row():
    # 480 layers underflow at grading 0.15, so every row of the scan fails
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(2.0, 2.2, 2.4, 2.6), p_values=(8,), c=60.0
    )
    with pytest.raises(DomainError, match=r"row at alpha = 2\.0 failed: ConfigError: 480 layers"):
        dip_scan(grid, p=8)


def test_dip_scan_validation():
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=(1.8, 2.0, 2.2), p_values=(8,))
    with pytest.raises(DomainError):
        dip_scan(grid, p=5)
    short = ExperimentGrid(k_values=(16.0,), alpha_values=(1.8, 2.0), p_values=(8,))
    with pytest.raises(DomainError):
        dip_scan(short)


def test_csv_round_trip(tmp_path):
    rows = run_grid(SMALL)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    with open_output(str(out_a)) as fh:
        write_csv(rows, fh)
    with open_output(str(out_b)) as fh:
        write_csv(run_grid(SMALL), fh)
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == 8
        # 17 significant digits round-trip doubles exactly
        assert float(fields[0]) == row.k
        assert float(fields[5]) == row.error_l2
        assert float(fields[6]) == row.relative_error
        assert fields[7] == "ok"


#: the README's 84-row sweep; its format_csv sha256 as the code wrote it
#: before big_f became a single Faddeeva call
README_GRID = ExperimentGrid(
    k_values=(4.0, 16.0, 64.0, 256.0),
    alpha_values=(2.0, 2.35619449019234, 2.7),
    p_values=(2, 3, 4, 5, 6, 7, 8),
    sigma=0.15,
    c=1.0,
)
README_GRID_SHA256 = "873c1e369159a6d4604f9b4598b53698baf15b02f13a26dfb9fc4fa911fba9a9"


def test_sweep_csv_bytes_are_pinned():
    rows = run_grid(README_GRID)
    assert len(rows) == 84
    text = format_csv(rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == README_GRID_SHA256


#: the 1152-row reference grid of the determinism contract
REFERENCE_GRID = ExperimentGrid(
    k_values=(4.0, 16.0, 64.0, 256.0),
    alpha_values=tuple(float(a) for a in np.linspace(0.5 * math.pi, math.pi, 33)[1:]),
    p_values=tuple(range(2, 11)),
)
REFERENCE_GRID_SHA256 = "2a6e352fa93af7b6ff4f3f743e3a27c64eed7af04bfad3ad72160dfbd84df884"


def test_reference_grid_csv_bytes_are_pinned():
    rows = run_grid(REFERENCE_GRID)
    assert len(rows) == 1152
    text = format_csv(rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REFERENCE_GRID_SHA256


_SWEEP_PROBE = """
import json, sys
from shadowhp.cli import main

code = main(["experiment", *sys.argv[1:]])
pool = ("concurrent.futures.process", "multiprocessing")
print(json.dumps([code, [m for m in pool if m in sys.modules]]))
"""


def test_experiment_runs_a_large_grid_in_one_process(tmp_path):
    # the largest grid at parallelism 2 runs in one process: it writes the
    # pinned bytes and loads no process-pool module
    conf = tmp_path / "grid.conf"
    conf.write_text(
        "".join(
            f"{key} = {', '.join(map(repr, getattr(REFERENCE_GRID, key)))}\n"
            for key in ("k_values", "alpha_values", "p_values")
        )
        + "parallelism = 2\n"
    )
    out = tmp_path / "grid.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_PROBE, str(conf), "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_GRID_SHA256


def _fresh_bytes(tmp_path, text):
    fresh = tmp_path / "fresh.out"
    with open(fresh, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return fresh.read_bytes()


@pytest.mark.parametrize(
    "old", [b"x" * 5000 + b"\n", b"y\n", b""], ids=["longer", "shorter", "empty"]
)
def test_open_output_overwrites_in_place(tmp_path, old):
    # a longer old file leaves no stale tail, a shorter one is outgrown
    rows = run_grid(SMALL)
    path = tmp_path / "out.csv"
    path.write_bytes(old)
    inode = path.stat().st_ino
    with open_output(str(path)) as fh:
        write_csv(rows, fh)
    assert path.read_bytes() == _fresh_bytes(tmp_path, format_csv(rows))
    assert path.stat().st_ino == inode


def test_open_output_writes_through_links(tmp_path):
    text = "a,b\n1,2\n"
    target = tmp_path / "target.csv"
    target.write_bytes(b"old contents, longer than the new ones\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    with open_output(str(link)) as fh:
        fh.write(text)
    assert link.is_symlink()
    assert target.read_bytes() == _fresh_bytes(tmp_path, text)
    # the hard link shares the inode, so it sees the new bytes too
    with open_output(str(hard)) as fh:
        fh.write(text + text)
    assert hard.stat().st_ino == target.stat().st_ino
    assert target.read_bytes() == hard.read_bytes() == _fresh_bytes(tmp_path, text + text)


def test_open_output_keeps_what_was_written_before_an_exception(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"z" * 10000)
    with pytest.raises(KeyError):
        with open_output(str(path)) as fh:
            fh.write("header\nrow 1\n")
            raise KeyError("mid-write")
    assert fh.closed
    assert path.read_bytes() == _fresh_bytes(tmp_path, "header\nrow 1\n")


def test_open_output_closed_unwritten_keeps_an_old_file(tmp_path):
    # a run that raises before its first write leaves the old output as it was
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous run\n")
    with pytest.raises(KeyError):
        with open_output(str(path)):
            raise KeyError("before the write")
    assert path.read_bytes() == b"previous run\n"
    with open_output(str(tmp_path / "new.csv")):
        pass
    assert (tmp_path / "new.csv").read_bytes() == b""


def test_open_output_creates_a_file_as_open_does(tmp_path):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "by-open.csv", "w", encoding="ascii") as fh:
            fh.write("x\n")
        with open_output(str(tmp_path / "by-open-output.csv")) as fh:
            fh.write("x\n")
    finally:
        os.umask(umask)
    want = (tmp_path / "by-open.csv").stat()
    got = (tmp_path / "by-open-output.csv").stat()
    assert stat.S_IMODE(got.st_mode) == stat.S_IMODE(want.st_mode) == 0o640
    assert (tmp_path / "by-open-output.csv").read_bytes() == b"x\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_open_output_never_truncates_a_pipe():
    # truncating a pipe raises; the writer cuts only regular files
    read_end, write_end = os.pipe()
    try:
        with open_output(f"/dev/fd/{write_end}") as fh:
            fh.write("through a pipe\n")
        os.close(write_end)
        write_end = None
        assert os.read(read_end, 100) == b"through a pipe\n"
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    with open_output(os.devnull) as fh:
        fh.write("discarded\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_open_output_names_its_path_when_a_write_fails():
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = f"/dev/fd/{write_end}"
    try:
        with pytest.raises(WriteError, match=re.escape(f"cannot write output {path!r}: ")) as info:
            with open_output(path) as fh:
                fh.write("nobody reads this\n")
    finally:
        os.close(write_end)
    assert info.value.path == path and info.value.reader_closed
    assert isinstance(info.value, ConfigError)
    # the file is closed although its last flush failed, so nothing is left to fail at exit
    assert fh.closed


def test_open_output_of_none_is_standard_output(capsys):
    with open_output(None) as out:
        out.write("to stdout\n")
    assert capsys.readouterr().out == "to stdout\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_experiment_to_a_fifo_is_one_writer_session(tmp_path):
    # the early check must not open the FIFO: the reader's EOF comes only
    # after the whole CSV, and the write finds the reader still there
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    cfg = tmp_path / "a.conf"
    cfg.write_text(
        f"k_values = 16\nalpha_values = {0.75 * math.pi!r}\np_values = 2, 3, 4\n"
        f"output = {fifo}\n",
        encoding="ascii",
    )
    # `cat fifo` in its own process, so that a writer that never comes
    # cannot hang the test
    cat = "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').read())"
    with subprocess.Popen([sys.executable, "-c", cat, str(fifo)], stdout=subprocess.PIPE) as reader:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "shadowhp", "experiment", str(cfg)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            got, _ = reader.communicate(timeout=60)
        finally:
            reader.kill()
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", f"wrote 3 rows to {fifo}\n")
    assert got == format_csv(run_grid(SMALL)).encode("ascii")

"""Convergence-sweep harness: grids, rate fits, dip location, CSV."""

import concurrent.futures
import hashlib
import itertools
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

import shadowhp.experiments as experiments
import shadowhp.hpspace as hpspace
import shadowhp.kernel as kernel
from shadowhp.errors import ConfigError, DomainError, OracleError
from shadowhp.experiments import (
    CSV_HEADER,
    ExperimentGrid,
    check_output,
    dip_scan,
    fit_rate,
    format_csv,
    layers_for_degree,
    open_output,
    run_grid,
    write_csv,
)
from shadowhp.hpspace import MAX_LAYERS

SMALL = ExperimentGrid(k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 3, 4))
# 2 k x 16 alpha x 9 p = 288 rows: enough rows for a 2-worker pool, not for 3
POOLED = ExperimentGrid(
    k_values=(4.0, 64.0),
    alpha_values=tuple(float(a) for a in np.linspace(0.5 * math.pi, math.pi, 17)[1:]),
    p_values=tuple(range(2, 11)),
)


def test_layers_for_degree():
    assert layers_for_degree(0, 1.0) == 1
    assert layers_for_degree(3, 1.0) == 3
    assert layers_for_degree(3, 0.5) == 2
    assert layers_for_degree(5, 0.34) == 2
    assert layers_for_degree(3, 2.0) == 6
    assert layers_for_degree(4, MAX_LAYERS / 4) == MAX_LAYERS


def test_layer_cap_applies_to_the_grid_before_any_row():
    # the deepest row, not the first, decides: p = 2 fits at c = 300, p = 8 does not
    for c, p_values in ((300.0, (2, 8)), (MAX_LAYERS / 2 + 1, (2,)), (1e308, (2,))):
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


def test_run_grid_deterministic_and_parallel_identical():
    serial_a = run_grid(SMALL)
    serial_b = run_grid(SMALL)
    parallel = run_grid(SMALL, parallelism=2)
    assert serial_a == serial_b
    assert serial_a == parallel
    assert format_csv(serial_a) == format_csv(parallel)


def test_run_grid_monotone_trend():
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 3, 4, 5, 6)
    )
    rows = run_grid(grid)
    errs = [r.error_l2 for r in rows]
    for nxt, cur in zip(errs[1:], errs[:-1]):
        assert nxt <= 1.05 * cur


def test_run_grid_records_failures_and_continues():
    # at c = 50, p = 8 asks for 400 layers, whose finest point underflows to 0
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 8), c=50.0
    )
    rows = run_grid(grid)
    by_p = {r.p: r for r in rows}
    assert by_p[2].status == "ok"
    assert by_p[8].status.startswith("failed: DomainError")
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


# no sweep row reaches the quadrature oracle, so an OracleError in a row is a bug
@pytest.mark.parametrize("error", [TypeError, OracleError])
def test_run_grid_propagates_bugs(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(experiments, "best_approx_error", broken)
    with pytest.raises(error, match="bug"):
        run_grid(SMALL)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker count of every pool run_grid builds."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # run_grid imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_run_grid_pool_output_identical_across_parallelism(monkeypatch, pool_sizes):
    assert 2 * experiments._MIN_ROWS_PER_WORKER <= 288 < 3 * experiments._MIN_ROWS_PER_WORKER
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 8)
    csv = {par: format_csv(run_grid(POOLED, parallelism=par)) for par in (1, 2, 4)}
    assert csv[1] == csv[2] == csv[4]
    assert csv[1].count("\n") == 289
    assert pool_sizes == [2, 2]


def test_run_grid_runs_in_process_when_a_pool_cannot_pay(monkeypatch, pool_sizes):
    # a small grid, however many cores and workers are allowed
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 8)
    assert run_grid(SMALL, parallelism=4) == run_grid(SMALL)
    # a grid large enough for a pool, on one usable core
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 1)
    assert len(run_grid(POOLED, parallelism=4)) == 288
    assert pool_sizes == []


def test_run_grid_never_starts_more_workers_than_pairs(monkeypatch, pool_sizes):
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 8)
    monkeypatch.setattr(experiments, "_MIN_ROWS_PER_WORKER", 1)
    one_pair = ExperimentGrid(k_values=(16.0,), alpha_values=(2.5,), p_values=(2, 3, 4, 5))
    assert run_grid(one_pair, parallelism=4) == run_grid(one_pair)
    assert pool_sizes == []
    two_pairs = replace(one_pair, alpha_values=(2.5, 3.0))
    assert run_grid(two_pairs, parallelism=4) == run_grid(two_pairs)
    assert pool_sizes == [2]


def test_run_grid_rejects_bad_parallelism(monkeypatch):
    # enough cores and rows for a pool, which a non-integer count would reach
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 4)
    monkeypatch.setattr(experiments, "_MIN_ROWS_PER_WORKER", 1)
    for parallelism in (0, 2.5):
        with pytest.raises(ConfigError, match=f"parallelism must be >= 1, got {parallelism}$"):
            run_grid(replace(SMALL, alpha_values=(2.0, 2.4, 3.0)), parallelism=parallelism)


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
    result = dip_scan(grid, p=8, parallelism=4)
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

    def fake_run_grid(grid, parallelism):
        assert grid.alpha_values == alphas and grid.p_values == (8,)
        return [
            experiments.GridRow(16.0, a, 8, 8, 72, e, e, "ok") for a, e in zip(alphas, errors)
        ]

    monkeypatch.setattr(experiments, "run_grid", fake_run_grid)
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=alphas, p_values=(8,))
    result = dip_scan(grid, p=8)
    assert result.alpha_min == alphas[expected]
    assert result.points == tuple(zip(alphas, errors))


def test_dip_scan_raises_on_a_failed_row():
    # 480 layers underflow at grading 0.15, so every row of the scan fails
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(2.0, 2.2, 2.4, 2.6), p_values=(8,), c=60.0
    )
    with pytest.raises(DomainError, match=r"row at alpha = 2\.0 failed: DomainError: 480 layers"):
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
    write_csv(rows, str(out_a))
    write_csv(run_grid(SMALL), str(out_b))
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


@pytest.mark.parametrize("parallelism", [1, 2])
def test_sweep_csv_bytes_are_pinned(parallelism):
    rows = run_grid(README_GRID, parallelism=parallelism)
    assert len(rows) == 84
    text = format_csv(rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == README_GRID_SHA256


#: the 1152-row reference grid of the determinism contract; 1152 rows are
#: enough for a 2-worker pool wherever 2 cores are usable
REFERENCE_GRID = ExperimentGrid(
    k_values=(4.0, 16.0, 64.0, 256.0),
    alpha_values=tuple(float(a) for a in np.linspace(0.5 * math.pi, math.pi, 33)[1:]),
    p_values=tuple(range(2, 11)),
)
REFERENCE_GRID_SHA256 = "2a6e352fa93af7b6ff4f3f743e3a27c64eed7af04bfad3ad72160dfbd84df884"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_reference_grid_csv_bytes_are_pinned(parallelism):
    rows = run_grid(REFERENCE_GRID, parallelism=parallelism)
    assert len(rows) == 1152
    text = format_csv(rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REFERENCE_GRID_SHA256


def test_check_output_touches_nothing(tmp_path):
    new = tmp_path / "new.csv"
    check_output(str(new))
    assert not new.exists()
    old = tmp_path / "old.csv"
    old.write_bytes(b"kept\n")
    check_output(str(old))
    assert old.read_bytes() == b"kept\n"
    for bad in (tmp_path / "missing-dir" / "x.csv", old / "x.csv", tmp_path, ""):
        with pytest.raises(ConfigError, match="cannot write output"):
            check_output(str(bad))
    # os.path.exists reads a path with a NUL byte as absent, not as invalid
    for path in (str(tmp_path / "a\0b.csv"), "\0"):
        with pytest.raises(ConfigError, match="embedded null byte"):
            check_output(path)
        with pytest.raises(ConfigError, match="embedded null byte"):
            open_output(path)


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
    write_csv(rows, str(path))
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

"""Convergence-sweep harness: grids, rate fits, dip location, CSV."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import shadowhp.experiments as experiments
from shadowhp.errors import DomainError
from shadowhp.experiments import (
    CSV_HEADER,
    ExperimentGrid,
    dip_scan,
    fit_rate,
    format_csv,
    layers_for_degree,
    run_grid,
    write_csv,
)

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


def test_grid_validation():
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(), alpha_values=(2.0,), p_values=(2,))
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(16.0,), alpha_values=(0.5 * math.pi,), p_values=(2,))
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(-1,))
    with pytest.raises(DomainError):
        ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), sigma=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ExperimentGrid(k_values=(bad,), alpha_values=(2.0,), p_values=(2,))
        with pytest.raises(DomainError):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), l_nc=bad)
        with pytest.raises(DomainError):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), l_nc_prime=bad)
        with pytest.raises(DomainError):
            ExperimentGrid(k_values=(16.0,), alpha_values=(2.0,), p_values=(2,), c=bad)


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
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * math.pi,), p_values=(2, 8)
    )
    rows = run_grid(grid, quad_order=5)
    by_p = {r.p: r for r in rows}
    assert by_p[2].status == "ok"
    assert by_p[8].status.startswith("failed: DomainError")
    assert "," not in by_p[8].status
    assert math.isnan(by_p[8].error_l2)
    assert by_p[8].dof == 0


def test_run_grid_rows_equal_row_by_row_rows():
    # at quad_order = 5 the p = 8 row of every pair fails, and with it the pair's batch
    grid = ExperimentGrid(
        k_values=(16.0, 64.0), alpha_values=(2.0, 0.75 * math.pi, math.pi), p_values=(0, 2, 8)
    )
    keys = itertools.product(grid.k_values, grid.alpha_values, grid.p_values)
    rows = run_grid(grid, quad_order=5)
    assert [r.status.split(":")[0] for r in rows] == ["ok", "ok", "failed"] * 6
    assert rows == [experiments._row_task(grid, 5, key) for key in keys]


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


def test_run_grid_subnormal_row_names_k_and_s():
    alpha = float(np.nextafter(0.5 * math.pi, math.pi))
    grid = ExperimentGrid(
        k_values=(5e-324,), alpha_values=(alpha,), p_values=(2,), l_nc_prime=5e-324
    )
    (row,) = run_grid(grid)
    assert row.status.startswith("failed: DomainError: mu(s) is not finite at s = ")
    assert "for k = 5e-324" in row.status


def test_run_grid_propagates_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(experiments, "best_approx_error", broken)
    with pytest.raises(TypeError, match="bug"):
        run_grid(SMALL)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker count of every pool run_grid builds."""
    sizes = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_run_grid_pool_output_identical_across_parallelism(monkeypatch, pool_sizes):
    assert 2 * experiments._MIN_ROWS_PER_WORKER <= 288 < 3 * experiments._MIN_ROWS_PER_WORKER
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 8)
    csv = {par: format_csv(run_grid(POOLED, parallelism=par)) for par in (1, 2, 4)}
    assert csv[1] == csv[2] == csv[4]
    assert csv[1].count("\n") == 289
    assert pool_sizes == [2, 2]


def test_run_grid_runs_in_process_when_a_pool_cannot_pay(monkeypatch, pool_sizes):
    # a small grid, however many cores and workers are allowed
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 8)
    assert run_grid(SMALL, parallelism=4) == run_grid(SMALL)
    # a grid large enough for a pool, on one usable core
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
    assert len(run_grid(POOLED, parallelism=4)) == 288
    assert pool_sizes == []


def test_run_grid_never_starts_more_workers_than_pairs(monkeypatch, pool_sizes):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 8)
    monkeypatch.setattr(experiments, "_MIN_ROWS_PER_WORKER", 1)
    one_pair = ExperimentGrid(k_values=(16.0,), alpha_values=(2.5,), p_values=(2, 3, 4, 5))
    assert run_grid(one_pair, parallelism=4) == run_grid(one_pair)
    assert pool_sizes == []
    two_pairs = replace(one_pair, alpha_values=(2.5, 3.0))
    assert run_grid(two_pairs, parallelism=4) == run_grid(two_pairs)
    assert pool_sizes == [2]


def test_run_grid_rejects_bad_parallelism():
    with pytest.raises(DomainError):
        run_grid(SMALL, parallelism=0)


@pytest.mark.parametrize("quad_order", [0, 257])
def test_run_grid_rejects_bad_quad_order_before_any_row(monkeypatch, quad_order):
    calls = []
    monkeypatch.setattr(experiments, "best_approx_error", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="quad_order"):
        run_grid(SMALL, quad_order=quad_order)
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
    params = {"l_nc": 2.0, "l_nc_prime": 0.7, "sigma": 0.2, "c": 1.7}
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

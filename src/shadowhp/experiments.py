"""Convergence-study harness: sweeps of the best-approximation error over
(k, alpha, p), exponential-rate fits, the error-dip locator, and
deterministic CSV emission.

Rows are pure functions of their parameters. The unit of work is a
(k, alpha) pair: one batched best_approx_error call evaluates V once for
all of the pair's degrees, and a pair whose batch fails reruns its rows
one at a time, so each row keeps its own status. Pairs may fan out to
worker processes. `parallelism` is an upper bound on the worker count,
not an exact count: the pool never has more workers than the process may
run on cores or than there are pairs, and a grid too small to repay a
pool's start-up (fewer than 2 * _MIN_ROWS_PER_WORKER rows) runs
in-process. Results are always merged back in canonical (k, alpha, p)
order and the output is bit-identical regardless of the parallelism
degree.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from shadowhp.amplitudes import ShadowConfig
from shadowhp.errors import DomainError, OracleError
from shadowhp.hpspace import best_approx_error, gauss_legendre_rule

CSV_HEADER = "k,alpha,p,n_layers,dof,error_l2,relative_error,status"

#: Rows a pool worker needs to repay its share of the pool's start-up and
#: teardown. On a 2-core VM, with rows batched per (k, alpha), a 2-worker
#: pool lost to the serial loop up to 216 rows and won from 252 rows on
#: (figures in CHANGES.md).
_MIN_ROWS_PER_WORKER = 128

__all__ = [
    "CSV_HEADER",
    "DipScanResult",
    "ExperimentGrid",
    "GridRow",
    "RateFit",
    "dip_scan",
    "fit_rate",
    "format_csv",
    "layers_for_degree",
    "run_grid",
    "write_csv",
]


@dataclass(frozen=True)
class ExperimentGrid:
    """Parameter grid of the convergence study. Angles are radians; by the
    symmetry of the setup only alpha in (pi/2, pi] is admitted.
    """

    k_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    p_values: tuple[int, ...]
    l_nc: float = 1.5
    l_nc_prime: float = 1.0
    sigma: float = 0.15
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.k_values and self.alpha_values and self.p_values):
            raise DomainError("k_values, alpha_values and p_values must be nonempty")
        if any(not (math.isfinite(k) and k > 0.0) for k in self.k_values):
            raise DomainError("wavenumbers must be finite and positive")
        if any(not 0.5 * math.pi < a <= math.pi for a in self.alpha_values):
            raise DomainError("alpha values must lie in (pi/2, pi]")
        if any(not (isinstance(p, int) and p >= 0) for p in self.p_values):
            raise DomainError("degrees must be nonnegative integers")
        if not all(math.isfinite(x) and x > 0.0 for x in (self.l_nc, self.l_nc_prime)):
            raise DomainError("side lengths must be finite and positive")
        if not 0.0 < self.sigma < 1.0:
            raise DomainError("grading must lie in (0, 1)")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise DomainError("layer constant c must be finite and positive")


@dataclass(frozen=True)
class GridRow:
    k: float
    alpha: float
    p: int
    n_layers: int
    dof: int
    error_l2: float
    relative_error: float
    status: str


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(error) = log(C) - tau * p."""

    tau: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class DipScanResult:
    points: tuple[tuple[float, float], ...]
    alpha_min: float
    expected_alpha: float
    within_pi_32: bool


def layers_for_degree(p: int, c: float) -> int:
    """Mesh depth n = max(1, ceil(c p)) used throughout the sweeps."""
    return max(1, math.ceil(c * p))


#: what a failed row records; any other exception is a bug and propagates
_ROW_ERRORS = (DomainError, OverflowError, OracleError)


def _row_task(grid: ExperimentGrid, quad_order: int | None, key: tuple) -> GridRow:
    k, alpha, p = key
    n = layers_for_degree(p, grid.c)
    try:
        cfg = ShadowConfig(k=k, alpha=alpha, l_nc=grid.l_nc, l_nc_prime=grid.l_nc_prime)
        res = best_approx_error(cfg, n, grid.sigma, p, quad_order)
    except _ROW_ERRORS as exc:
        reason = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return GridRow(k, alpha, p, n, 0, math.nan, math.nan, f"failed: {reason}")
    return GridRow(k, alpha, p, n, res.dof, res.error_l2, res.relative_error, "ok")


def _pair_task(grid: ExperimentGrid, quad_order: int | None, pair: tuple) -> list[GridRow]:
    """The rows of one (k, alpha) pair, in ascending p, from one batched
    best_approx_error call. If the batch fails, each row is rerun on its
    own, so that every row records its own status.
    """
    k, alpha = pair
    ps = sorted(grid.p_values)
    ns = [layers_for_degree(p, grid.c) for p in ps]
    try:
        cfg = ShadowConfig(k=k, alpha=alpha, l_nc=grid.l_nc, l_nc_prime=grid.l_nc_prime)
        results = best_approx_error(cfg, ns, grid.sigma, ps, quad_order)
    except _ROW_ERRORS:
        return [_row_task(grid, quad_order, (k, alpha, p)) for p in ps]
    return [
        GridRow(k, alpha, p, n, res.dof, res.error_l2, res.relative_error, "ok")
        for p, n, res in zip(ps, ns, results)
    ]


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_grid(
    grid: ExperimentGrid,
    quad_order: int | None = None,
    parallelism: int = 1,
) -> list[GridRow]:
    """One row per (k, alpha, p), in canonical sorted order. A row that
    fails with a domain, overflow or oracle error records its reason in the
    status column and the sweep continues; any other exception propagates.
    A bad `quad_order` or `parallelism` raises DomainError before any row.

    The unit of work is a (k, alpha) pair: V is evaluated once for all of
    its degrees (see _pair_task), and the pairs' rows are concatenated in
    sorted pair order. At most `parallelism` worker processes are used,
    never more than the usable cores or the pairs, and never fewer than
    _MIN_ROWS_PER_WORKER rows per worker; below two workers the pairs run
    in-process.
    """
    if parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {parallelism}")
    if quad_order is not None:
        gauss_legendre_rule(quad_order)
    pairs = list(itertools.product(sorted(grid.k_values), sorted(grid.alpha_values)))
    n_rows = len(pairs) * len(grid.p_values)
    task = functools.partial(_pair_task, grid, quad_order)
    workers = min(parallelism, _usable_cores(), len(pairs), n_rows // _MIN_ROWS_PER_WORKER)
    if workers < 2:
        return [row for pair in pairs for row in task(pair)]
    chunksize = math.ceil(len(pairs) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(task, pairs, chunksize=chunksize) for row in rows]


def fit_rate(pairs: list[tuple[float, float]]) -> RateFit:
    """Fit log(error) = intercept - tau * p over (p, error) pairs.

    Pairs with error <= 1e-14 are dropped (converged-to-roundoff tail);
    at least 4 must survive.
    """
    kept = [(float(p), float(e)) for p, e in pairs if e > 1e-14]
    if len(kept) < 4:
        raise DomainError(
            f"rate fit needs >= 4 points above roundoff, got {len(kept)}"
        )
    ps = np.array([p for p, _ in kept])
    logs = np.log(np.array([e for _, e in kept]))
    slope, intercept = np.polyfit(ps, logs, 1)
    fitted = slope * ps + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(tau=float(-slope), intercept=float(intercept), r_squared=r_squared)


def dip_scan(
    grid: ExperimentGrid,
    p: int = 8,
    quad_order: int | None = None,
    parallelism: int = 1,
) -> DipScanResult:
    """Sweep the relative error over the grid's alpha values at fixed degree
    (k is the grid's first wavenumber; the reference setup runs at k = 16)
    and locate the error dip: the first strict interior local minimum over
    ascending alpha, falling back to the global minimum when the sampled
    landscape has no interior one. Reports whether the dip lies within
    pi/32 of the predicted pi/2 + arctan(4/9).
    """
    if p < 6:
        raise DomainError(f"the dip is resolved only for p >= 6, got {p}")
    if len(grid.alpha_values) < 3:
        raise DomainError("dip_scan needs at least 3 alpha values")
    scan = replace(grid, k_values=(min(grid.k_values),), p_values=(p,))
    rows = run_grid(scan, quad_order, parallelism)
    points = tuple((row.alpha, row.relative_error) for row in rows)
    errs = [e for _, e in points]
    alpha_min = None
    for i in range(1, len(points) - 1):
        if errs[i] < errs[i - 1] and errs[i] < errs[i + 1]:
            alpha_min = points[i][0]
            break
    if alpha_min is None:
        alpha_min = points[int(np.argmin(errs))][0]
    expected = 0.5 * math.pi + math.atan(4.0 / 9.0)
    return DipScanResult(
        points=points,
        alpha_min=alpha_min,
        expected_alpha=expected,
        within_pi_32=abs(alpha_min - expected) <= math.pi / 32.0,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def format_csv(rows: list[GridRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.k)},{_fmt(r.alpha)},{r.p},{r.n_layers},{r.dof},"
            f"{_fmt(r.error_l2)},{_fmt(r.relative_error)},{r.status}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[GridRow], path: str) -> None:
    """Emit the canonical CSV; bit-identical across reruns of the same grid."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_csv(rows))

"""Convergence-study harness: sweeps of the best-approximation error over
(k, alpha, p), exponential-rate fits, the error-dip locator, and
deterministic CSV emission.

Rows are pure functions of their parameters. The unit of work is a
(k, alpha) pair: one batched best_approx_error call evaluates V once for
all of the pair's degrees, and a pair whose batch fails reruns each
degree as a one-row batch, so each row keeps its own status. Pairs may
fan out to worker processes. `parallelism` is an upper bound on the
worker count, not an exact count: the pool never has more workers than
the process may run on cores or than there are pairs, and a grid too
small to repay a pool's start-up (fewer than 2 * _MIN_ROWS_PER_WORKER
rows) runs in-process. Results are always merged back in canonical
(k, alpha, p) order and the output is bit-identical regardless of the
parallelism degree.

The CSV is written by runio.open_output, which overwrites an existing
file in place. The writer and check_output have their one home in runio,
which needs no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from shadowhp import kernel
from shadowhp._arrays import is_count
from shadowhp.amplitudes import ShadowConfig
from shadowhp.errors import ConfigError, DomainError
from shadowhp.hpspace import (
    MAX_LAYERS,
    best_approx_error,
    check_degree,
    check_grading,
    check_quad_order,
)
from shadowhp.runio import _fmt, open_output

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
    """Parameter grid of the convergence study, and every value a sweep's
    numbers depend on: quad_order is the per-element rule size (None: the
    default 2p + 16 of check_quad_order). Angles are radians; by the
    symmetry of the setup only alpha in (pi/2, pi] is admitted. The grid is
    read from a config file, so every bad value raises ConfigError.
    """

    k_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    p_values: tuple[int, ...]
    l_nc: float = 1.5
    l_nc_prime: float = 1.0
    sigma: float = 0.15
    c: float = 1.0
    quad_order: int | None = None

    def __post_init__(self) -> None:
        if not (self.k_values and self.alpha_values and self.p_values):
            raise ConfigError("k_values, alpha_values and p_values must be nonempty")
        for a in self.alpha_values:
            if not 0.5 * math.pi < a <= math.pi:
                raise ConfigError(f"alpha values must lie in (pi/2, pi], got {a}")
        # the model's own wavenumber and side-length rules, as config errors
        try:
            for k in self.k_values:
                ShadowConfig(k, self.alpha_values[0], self.l_nc, self.l_nc_prime)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        for p in self.p_values:
            check_degree(p)
        for name in ("k_values", "alpha_values", "p_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {values}")
        check_grading(self.sigma)
        # the deepest mesh and the highest degree of the grid, so that no row
        # fails on the layer cap or the rule size
        layers_for_degree(max(self.p_values), self.c)
        check_quad_order(max(self.p_values), self.quad_order)


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
    """Mesh depth n = max(1, ceil(c p)) used throughout the sweeps. Raise
    ConfigError, naming c, unless the layer constant c is finite and
    positive, and naming c and p when n would exceed MAX_LAYERS.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"layer constant c must be finite and positive, got {c}")
    depth = c * p
    # compared before ceil, which would raise on a c p that overflows to inf
    if depth > MAX_LAYERS:
        raise ConfigError(
            f"layer constant c = {c} at degree {p} asks for more than "
            f"MAX_LAYERS = {MAX_LAYERS} layers"
        )
    return max(1, math.ceil(depth))


#: what a failed row records; any other exception is a bug and propagates
_ROW_ERRORS = (DomainError, OverflowError)


def _pair_task(grid: ExperimentGrid, pair: tuple, ps: list[int] | None = None) -> list[GridRow]:
    """The rows of one (k, alpha) pair at the degrees ps (default: all of
    the grid's, ascending), from one batched best_approx_error call. If a
    batch of several rows fails, each degree is rerun on its own, so that
    every row records its own status.
    """
    k, alpha = pair
    ps = sorted(grid.p_values) if ps is None else ps
    ns = [layers_for_degree(p, grid.c) for p in ps]
    try:
        cfg = ShadowConfig(k=k, alpha=alpha, l_nc=grid.l_nc, l_nc_prime=grid.l_nc_prime)
        results = best_approx_error(cfg, ns, grid.sigma, ps, grid.quad_order)
    except _ROW_ERRORS as exc:
        if len(ps) > 1:
            return [row for p in ps for row in _pair_task(grid, pair, [p])]
        reason = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return [GridRow(k, alpha, ps[0], ns[0], 0, math.nan, math.nan, f"failed: {reason}")]
    return [
        GridRow(k, alpha, p, n, res.dof, res.error_l2, res.relative_error, "ok")
        for p, n, res in zip(ps, ns, results)
    ]


def run_grid(grid: ExperimentGrid, parallelism: int = 1) -> list[GridRow]:
    """One row per (k, alpha, p), in canonical sorted order. A row that
    fails with a domain or overflow error records its reason in the
    status column and the sweep continues; any other exception propagates.
    A bad `parallelism` raises ConfigError before any row.

    The unit of work is a (k, alpha) pair: V is evaluated once for all of
    its degrees (see _pair_task), and the pairs' rows are concatenated in
    sorted pair order. At most `parallelism` worker processes are used,
    never more than the usable cores (kernel._usable_cores, which also
    sizes faddeeva_w's thread split) or the pairs, and never fewer than
    _MIN_ROWS_PER_WORKER rows per worker; below two workers the pairs run
    in-process.
    """
    if not (is_count(parallelism) and parallelism >= 1):
        raise ConfigError(f"parallelism must be an integer >= 1, got {parallelism}")
    pairs = list(itertools.product(sorted(grid.k_values), sorted(grid.alpha_values)))
    n_rows = len(pairs) * len(grid.p_values)
    task = functools.partial(_pair_task, grid)
    workers = min(parallelism, kernel._usable_cores(), len(pairs), n_rows // _MIN_ROWS_PER_WORKER)
    if workers < 2:
        return [row for pair in pairs for row in task(pair)]
    chunksize = math.ceil(len(pairs) / (4 * workers))
    # forked workers inherit the kernel from here instead of each loading it
    kernel.load_wofz()
    # the pool machinery (multiprocessing) is loaded only by a run that uses it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(task, pairs, chunksize=chunksize) for row in rows]


def fit_rate(pairs: list[tuple[float, float]]) -> RateFit:
    """Fit log(error) = intercept - tau * p over (p, error) pairs.

    Pairs with error <= 1e-14 are dropped (converged-to-roundoff tail);
    at least 4 must survive, at 2 or more distinct p. A p or error that is
    not finite (a failed row's NaN error) raises DomainError naming its pair.
    """
    for p, e in pairs:
        if not (math.isfinite(p) and math.isfinite(e)):
            raise DomainError(f"rate fit needs finite p and error, got p = {p!r}, error = {e!r}")
    kept = [(float(p), float(e)) for p, e in pairs if e > 1e-14]
    if len(kept) < 4:
        raise DomainError(
            f"rate fit needs >= 4 points above roundoff, got {len(kept)}"
        )
    distinct = sorted({p for p, _ in kept})
    if len(distinct) < 2:
        raise DomainError(f"rate fit needs >= 2 distinct p above roundoff, got p = {distinct}")
    ps = np.array([p for p, _ in kept])
    logs = np.log(np.array([e for _, e in kept]))
    slope, intercept = np.polyfit(ps, logs, 1)
    fitted = slope * ps + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(tau=float(-slope), intercept=float(intercept), r_squared=r_squared)


def dip_scan(grid: ExperimentGrid, p: int = 8, parallelism: int = 1) -> DipScanResult:
    """Sweep the relative error over the grid's alpha values at fixed degree
    (k is the grid's smallest wavenumber; the reference setup runs at k = 16)
    and locate the error dip: the first strict interior local minimum over
    ascending alpha, falling back to the global minimum when the sampled
    landscape has no interior one. Reports whether the dip lies within
    pi/32 of the predicted pi/2 + arctan(4/9). Raises DomainError, naming
    its alpha and status, when a row of the scan failed.
    """
    if p < 6:
        raise DomainError(f"the dip is resolved only for p >= 6, got {p}")
    if len(grid.alpha_values) < 3:
        raise DomainError("dip_scan needs at least 3 alpha values")
    scan = replace(grid, k_values=(min(grid.k_values),), p_values=(p,))
    rows = run_grid(scan, parallelism)
    failed = next((row for row in rows if row.status != "ok"), None)
    if failed is not None:
        raise DomainError(f"the dip scan's row at alpha = {failed.alpha!r} {failed.status}")
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


def format_csv(rows: list[GridRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.k)},{_fmt(r.alpha)},{r.p},{r.n_layers},{r.dof},"
            f"{_fmt(r.error_l2)},{_fmt(r.relative_error)},{r.status}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[GridRow], path: str) -> None:
    """Emit the canonical CSV; bit-identical across reruns of the same grid.
    An output that cannot be opened raises ConfigError (see runio.open_output).
    """
    with open_output(path) as fh:
        fh.write(format_csv(rows))

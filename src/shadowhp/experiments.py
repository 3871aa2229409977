"""Convergence-study harness: sweeps of the best-approximation error over
(k, alpha, p) and deterministic CSV emission.

Rows are pure functions of their parameters. The unit of work is a
(k, alpha) pair: one batched best_approx_error call evaluates V once for
all of the pair's degrees, and a pair whose batch fails reruns each
degree as a one-row batch, so each row keeps its own status. The pairs
run one after another in this process, in canonical (k, alpha, p) order,
so the output is bit-identical across reruns. The rate fit and the
error-dip locator that the tests run on sweeps live with them
(tests/oracles.py).

write_csv writes the CSV to an open text stream; the command line opens
it with runio.open_output, which overwrites an existing file in place and
has its one home in runio, which needs no numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TextIO

from shadowhp.amplitudes import ShadowConfig
from shadowhp.errors import ConfigError, DomainError
from shadowhp.hpspace import (
    MAX_LAYERS,
    best_approx_error,
    check_degree,
    check_grading,
    check_quad_order,
)
from shadowhp.runio import _fmt

CSV_HEADER = "k,alpha,p,n_layers,dof,error_l2,relative_error,status"

__all__ = [
    "CSV_HEADER",
    "ExperimentGrid",
    "GridRow",
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


def layers_for_degree(p: int, c: float) -> int:
    """Mesh depth n = max(1, ceil(c p)) used throughout the sweeps. Raise
    ConfigError, naming c, unless the layer constant c is finite and
    positive, and naming c and p when n would exceed MAX_LAYERS.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"layer constant c must be finite and positive, got {c}")
    try:
        depth = c * p
    except OverflowError:  # a p beyond the double range
        depth = math.inf
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


def run_grid(grid: ExperimentGrid) -> list[GridRow]:
    """One row per (k, alpha, p), in canonical sorted order. A row that
    fails with a domain or overflow error records its reason in the
    status column and the sweep continues; any other exception propagates.

    The unit of work is a (k, alpha) pair: V is evaluated once for all of
    its degrees (see _pair_task), and the pairs run in this process in
    sorted pair order.
    """
    pairs = itertools.product(sorted(grid.k_values), sorted(grid.alpha_values))
    return [row for pair in pairs for row in _pair_task(grid, pair)]


def format_csv(rows: list[GridRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.k)},{_fmt(r.alpha)},{r.p},{r.n_layers},{r.dof},"
            f"{_fmt(r.error_l2)},{_fmt(r.relative_error)},{r.status}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[GridRow], out: TextIO) -> None:
    """Write the canonical CSV, bit-identical across reruns, to the stream out."""
    out.write(format_csv(rows))

"""Graded meshes, Legendre bases, Gauss-Legendre quadrature and L2 projection.

The projection basis is orthonormal shifted Legendre per element, so the
mass matrix is the identity and coefficients come straight from quadrature;
no linear solve, no conditioning questions.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.errors import ConfigError, DomainError

#: relative tolerance below which neighbouring mesh candidates are merged
MERGE_RTOL = 1e-12

#: Most layers a geometric mesh may have, checked before any point is
#: built. A mesh of n layers has at most 2n + 1 elements of at most 256
#: rule nodes, so the cap bounds the V nodes of one row: `project --p 120
#: --n 1024 --sigma 0.999` peaks at 110 MB resident, where `--p 4
#: --n 80000 --sigma 0.99999` reached 329 MB. The cap lies above the 400
#: layers at which the default grading 0.15 underflows, so that depth
#: still fails as a DomainError of its own sweep row.
MAX_LAYERS = 1024

__all__ = [
    "MAX_LAYERS",
    "MERGE_RTOL",
    "Mesh",
    "PiecewisePolySpace",
    "ProjectionResult",
    "bernstein_rho",
    "best_approx_error",
    "check_degree",
    "check_grading",
    "check_mesh_depth",
    "check_quad_order",
    "gauss_legendre_rule",
    "geometric_mesh",
    "l2_project",
    "shadow_mesh",
]


def check_degree(p: int) -> None:
    """Raise ConfigError, naming p, unless the degree is an integer >= 0
    (a bool is not a degree)."""
    if not (isinstance(p, int) and not isinstance(p, bool) and p >= 0):
        raise ConfigError(f"degree must be a nonnegative integer, got {p}")


def check_grading(sigma: float) -> None:
    """Raise ConfigError, naming sigma, unless the grading lies in (0, 1)."""
    if not 0.0 < sigma < 1.0:
        raise ConfigError(f"grading must lie in (0, 1), got {sigma}")


def check_mesh_depth(length: float, n: int, sigma: float) -> None:
    """Raise ConfigError, naming n, unless the layer count is an integer in
    [1, MAX_LAYERS], and check sigma with check_grading; then raise
    DomainError, naming both, when n layers at grading sigma put the finest
    point sigma^(n-1) length of a side of that length at 0.0.

    So a sweep row at that depth fails on its own; `shadowhp project`,
    whose options n and sigma are, reports the underflow as a ConfigError.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ConfigError(f"layer count must be an integer >= 1, got {n}")
    if n > MAX_LAYERS:
        raise ConfigError(f"layer count {n} exceeds MAX_LAYERS = {MAX_LAYERS}")
    check_grading(sigma)
    if sigma ** (n - 1) * length == 0.0:
        raise DomainError(f"{n} layers at grading {sigma} put the finest point at 0.0")


def check_quad_order(p: int, quad_order: int | None) -> int:
    """The per-element rule size for degree p: quad_order, or 2p + 16 when
    it is None. Raise ConfigError unless the size is an integer in
    [p + 1, 256]; a smaller rule would alias the coefficients, so under
    the default p is at most 120.
    """
    m = 2 * p + 16 if quad_order is None else quad_order
    if not (isinstance(m, int) and p + 1 <= m <= 256):
        name = "quad_order (the default 2p + 16)" if quad_order is None else "quad_order"
        raise ConfigError(f"{name} for degree {p} must be an integer in [{p + 1}, 256], got {m}")
    return m


@dataclass(frozen=True)
class Mesh:
    """Sorted breakpoints of a one-dimensional mesh."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a mesh needs at least two points")
        if not all(map(operator.lt, self.points, self.points[1:])):
            raise DomainError("mesh points must be strictly increasing")

    @property
    def n_elements(self) -> int:
        return len(self.points) - 1

    def elements(self) -> list[tuple[float, float]]:
        return list(zip(self.points[:-1], self.points[1:]))


@dataclass(frozen=True)
class PiecewisePolySpace:
    """Piecewise polynomials of uniform degree on a mesh."""

    mesh: Mesh
    degree: int

    def __post_init__(self) -> None:
        check_degree(self.degree)

    @property
    def dof(self) -> int:
        return self.mesh.n_elements * (self.degree + 1)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Per-element orthonormal-Legendre coefficients with L2 error data.

    element_err2 holds each element's squared L2 error, in mesh order and
    read-only; error_l2 is the square root of their sum. Results compare
    and hash by identity, as their array fields cannot be compared by value.
    """

    coefficients: tuple[np.ndarray, ...]
    error_l2: float
    relative_error: float
    dof: int
    element_err2: np.ndarray

    @property
    def element_shares(self) -> np.ndarray:
        """Each element's share of the squared error of the whole mesh, in
        mesh order (all 0.0 when the projection is exact)."""
        total = self.element_err2.sum()
        return self.element_err2 / total if total > 0.0 else np.zeros_like(self.element_err2)

    @property
    def worst_element(self) -> tuple[int, float]:
        """(index, share): the element with the largest squared error and
        its share (see element_shares)."""
        i = int(np.argmax(self.element_err2))
        return i, float(self.element_shares[i])


def geometric_mesh(length: float, n: int, sigma: float) -> Mesh:
    """Geometric mesh on (0, length) graded toward 0:
    points 0 and sigma^{n-i} length for i = 1..n.

    A layer count outside [1, MAX_LAYERS] raises ConfigError, and a finest
    point that underflows to 0.0 raises DomainError, both before any point
    is built.
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise DomainError(f"length must be positive and finite, got {length}")
    check_mesh_depth(length, n, sigma)
    pts = [0.0] + [sigma ** (n - i) * length for i in range(1, n + 1)]
    return Mesh(points=tuple(pts))


def shadow_mesh(cfg: ShadowConfig, n: int, sigma: float) -> Mesh:
    """Mesh on (0, l_nc) graded toward the shadow point from both sides:
    the union of s_sb + G and s_sb - G (G the geometric mesh points)
    intersected with the open side, plus the two endpoints. Candidates
    closer than MERGE_RTOL * l_nc are merged, the lowest of a cluster
    surviving; the endpoints and a shadow point inside the side always win.
    """
    s_sb = cfg.s_sb
    length = cfg.l_nc
    tol = MERGE_RTOL * length
    base = geometric_mesh(length, n, sigma).points
    # V jumps at s_sb (itself a candidate, s_sb + 0), so an element must not
    # straddle it: layers finer than tol are dropped rather than displacing it
    pinned = tol < s_sb < length - tol
    candidates = sorted({s_sb + x for x in base} | {s_sb - x for x in base})
    interior: list[float] = []
    for c in candidates:
        if not tol < c < length - tol:
            continue
        if pinned and c != s_sb and abs(c - s_sb) <= tol:
            continue
        if interior and c - interior[-1] <= tol:
            continue
        interior.append(c)
    return Mesh(points=tuple([0.0, *interior, length]))


@functools.lru_cache(maxsize=None, typed=True)
def gauss_legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [-1, 1], exact to degree 2m - 1.

    Cached per m (typed, so 2.0 is still rejected after 2 was cached); the
    arrays are shared between callers and therefore read-only.
    """
    if not (isinstance(m, int) and 1 <= m <= 256):
        raise ConfigError(f"quad_order (rule size) must be an integer in [1, 256], got {m}")
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=128)
def _orthonormal_vandermonde(m: int, p: int) -> np.ndarray:
    """Columns phi_0..phi_p at the m-point Gauss nodes, with
    int_{-1}^{1} phi_i phi_j = delta_ij.

    Cached per (m, p) like gauss_legendre_rule, so the array is shared
    between callers and therefore read-only.
    """
    x, _ = gauss_legendre_rule(m)
    scale = np.sqrt((2.0 * np.arange(p + 1) + 1.0) / 2.0)
    van = np.polynomial.legendre.legvander(x, p) * scale
    van.flags.writeable = False
    return van


def _quadrature(space: PiecewisePolySpace, quad_order: int | None):
    """Gauss nodes (n_elements, m) of every element, the element
    half-lengths, and the rule size m (default 2p + 16).
    """
    quad_order = check_quad_order(space.degree, quad_order)
    x, _ = gauss_legendre_rule(quad_order)
    pts = np.array(space.mesh.points)
    a = pts[:-1, None]
    half = 0.5 * (pts[1:] - pts[:-1])
    return a + half[:, None] * (x + 1.0), half, quad_order


def _project_values(
    f: np.ndarray, half: np.ndarray, m: int, space: PiecewisePolySpace
) -> ProjectionResult:
    """Projection of the values f (n_elements, m) at the m Gauss nodes of
    every element, all elements in one batched step. Raises OverflowError
    when the squared L2 error or norm leaves the double range.
    """
    _, w = gauss_legendre_rule(m)
    van = _orthonormal_vandermonde(m, space.degree)
    sqrt_half = np.sqrt(half)[:, None]
    # coefficients in the orthonormal-on-[a,b] basis phi_j / sqrt(half)
    c = (f * w) @ van * sqrt_half
    proj = c @ van.T / sqrt_half
    # an overflow here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.abs(f - proj) ** 2 @ w
        err2 = float(half @ rows)
        norm2 = float(half @ (np.abs(f) ** 2 @ w))
    if not (math.isfinite(err2) and math.isfinite(norm2)):
        raise OverflowError(
            f"squared L2 error {err2!r} or norm {norm2!r} of the target is not finite"
        )
    norm = math.sqrt(norm2)
    if norm == 0.0:
        raise DomainError("zero-norm target: relative error undefined")
    error = math.sqrt(err2)
    element_err2 = half * rows
    element_err2.flags.writeable = False
    return ProjectionResult(
        coefficients=tuple(c),
        error_l2=error,
        relative_error=error / norm,
        dof=space.dof,
        element_err2=element_err2,
    )


def l2_project(
    target: Callable[[np.ndarray], np.ndarray | complex],
    space_or_spaces: PiecewisePolySpace | Sequence[PiecewisePolySpace],
    quad_order: int | None = None,
) -> ProjectionResult | list[ProjectionResult]:
    """L2-orthogonal projection of target onto a space, or onto each space
    of a sequence, which returns a list of results in order.

    target is called once, on a 1-d array of the Gauss nodes of every
    element of every space, and returns the values there (a constant is
    broadcast). quad_order is the per-element Gauss-Legendre size; the
    default 2p + 16 resolves (polynomial) x (smooth amplitude) integrands,
    which the doubling self-test in the suite confirms. Raises on
    quad_order <= p (the coefficients would alias) and on a zero-norm
    target (the relative error would be undefined).
    """
    scalar = isinstance(space_or_spaces, PiecewisePolySpace)
    spaces = [space_or_spaces] if scalar else list(space_or_spaces)
    if not spaces:
        raise DomainError("l2_project needs at least one space")
    quads = [_quadrature(space, quad_order) for space in spaces]
    nodes = np.concatenate([q.ravel() for q, _, _ in quads])
    values = np.broadcast_to(np.asarray(target(nodes), dtype=complex), nodes.shape)
    cuts = np.cumsum([q.size for q, _, _ in quads])[:-1]
    results = [
        _project_values(f.reshape(q.shape), half, m, space)
        for space, (q, half, m), f in zip(spaces, quads, np.split(values, cuts))
    ]
    return results[0] if scalar else results


def best_approx_error(
    cfg: ShadowConfig,
    n: int | Sequence[int],
    sigma: float,
    p: int | Sequence[int],
    quad_order: int | None = None,
) -> ProjectionResult | list[ProjectionResult]:
    """Best-approximation error of the shadow-boundary amplitude V on the
    graded mesh: V projected by one l2_project call onto the piecewise
    polynomials of degree p on shadow_mesh(cfg, n, sigma).

    n and p are integers, or equal-length sequences of them for a batch of
    rows on one configuration, which returns a list of results in order.
    A scalar call is a one-row batch, so both give the same bits.
    """
    scalar = np.ndim(n) == 0 and np.ndim(p) == 0
    ns, ps = ([n], [p]) if scalar else (list(n), list(p))
    if not ns or len(ns) != len(ps):
        raise DomainError(
            f"n and p must be nonempty and of equal length, got {len(ns)} and {len(ps)}"
        )
    spaces = [
        PiecewisePolySpace(mesh=shadow_mesh(cfg, layers, sigma), degree=degree)
        for layers, degree in zip(ns, ps)
    ]
    results = l2_project(lambda s: amplitude_v(s, cfg), spaces, quad_order)
    return results[0] if scalar else results


def bernstein_rho(eps: float) -> float:
    """Geometric convergence ratio rho = 1/eps + sqrt(1/eps^2 - 1) of the
    ellipse (foci at the element endpoints) with eccentricity eps in (0, 1).

    For a target with nearest singularity c relative to an element [a, b],
    eps = (b - a) / (|c - a| + |c - b|).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eccentricity must lie in (0, 1), got {eps}")
    inv = 1.0 / eps
    return inv + math.sqrt(inv * inv - 1.0)

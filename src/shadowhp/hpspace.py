"""Graded meshes, Legendre bases, Gauss-Legendre quadrature and L2 projection.

The projection basis is orthonormal shifted Legendre per element, so the
mass matrix is the identity and coefficients come straight from quadrature;
no linear solve, no conditioning questions.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.errors import DomainError

#: relative tolerance below which neighbouring mesh candidates are merged
MERGE_RTOL = 1e-12

__all__ = [
    "MERGE_RTOL",
    "Mesh",
    "PiecewisePolySpace",
    "ProjectionResult",
    "bernstein_rho",
    "best_approx_error",
    "gauss_legendre_rule",
    "geometric_mesh",
    "l2_project",
    "shadow_mesh",
]


@dataclass(frozen=True)
class Mesh:
    """Sorted breakpoints of a one-dimensional mesh plus the grading
    parameters that produced it.
    """

    points: tuple[float, ...]
    n_layers: int
    sigma: float

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a mesh needs at least two points")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
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
        if not (isinstance(self.degree, int) and self.degree >= 0):
            raise DomainError(f"degree must be a nonnegative integer, got {self.degree}")

    @property
    def dof(self) -> int:
        return self.mesh.n_elements * (self.degree + 1)


@dataclass(frozen=True)
class ProjectionResult:
    """Per-element orthonormal-Legendre coefficients with L2 error data."""

    coefficients: tuple[np.ndarray, ...]
    error_l2: float
    relative_error: float
    dof: int


def geometric_mesh(length: float, n: int, sigma: float) -> Mesh:
    """Geometric mesh on (0, length) graded toward 0:
    points 0 and sigma^{n-i} length for i = 1..n.
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise DomainError(f"length must be positive and finite, got {length}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"layer count must be an integer >= 1, got {n}")
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"grading must lie in (0, 1), got {sigma}")
    pts = [0.0] + [sigma ** (n - i) * length for i in range(1, n + 1)]
    return Mesh(points=tuple(pts), n_layers=n, sigma=sigma)


def shadow_mesh(cfg: ShadowConfig, n: int, sigma: float) -> Mesh:
    """Mesh on (0, l_nc) graded toward the shadow point from both sides:
    the union of s_sb + G and s_sb - G (G the geometric mesh points)
    intersected with the open side, plus the two endpoints. Candidates
    closer than MERGE_RTOL * l_nc are merged; the endpoints always win.
    """
    base = geometric_mesh(cfg.l_nc, n, sigma).points
    length = cfg.l_nc
    tol = MERGE_RTOL * length
    candidates = sorted(
        {cfg.s_sb + x for x in base} | {cfg.s_sb - x for x in base}
    )
    interior: list[float] = []
    for c in candidates:
        if not tol < c < length - tol:
            continue
        if interior and c - interior[-1] <= tol:
            continue
        interior.append(c)
    return Mesh(points=tuple([0.0, *interior, length]), n_layers=n, sigma=sigma)


@functools.lru_cache(maxsize=None, typed=True)
def gauss_legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [-1, 1], exact to degree 2m - 1.

    Cached per m (typed, so 2.0 is still rejected after 2 was cached); the
    arrays are shared between callers and therefore read-only.
    """
    if not (isinstance(m, int) and 1 <= m <= 256):
        raise DomainError(f"rule size must be an integer in [1, 256], got {m}")
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _orthonormal_vandermonde(x: np.ndarray, p: int) -> np.ndarray:
    # columns phi_j(x) with int_{-1}^{1} phi_i phi_j = delta_ij
    scale = np.sqrt((2.0 * np.arange(p + 1) + 1.0) / 2.0)
    return np.polynomial.legendre.legvander(x, p) * scale


def _quadrature(space: PiecewisePolySpace, quad_order: int | None):
    """Per-element Gauss nodes (n_elements, m), element half-lengths, and
    the rule's weights; quad_order defaults to 2p + 16.
    """
    p = space.degree
    if quad_order is None:
        quad_order = 2 * p + 16
    if quad_order < p + 1:
        raise DomainError(f"quad_order must be >= degree + 1, got {quad_order}")
    x, w = gauss_legendre_rule(quad_order)
    pts = np.array(space.mesh.points)
    a = pts[:-1, None]
    half = 0.5 * (pts[1:] - pts[:-1])
    return a + half[:, None] * (x + 1.0), half, x, w


def _project_values(
    f: np.ndarray, half: np.ndarray, x: np.ndarray, w: np.ndarray, space: PiecewisePolySpace
) -> ProjectionResult:
    """Projection of the values f (n_elements, m) at the Gauss nodes of
    every element, all elements in one batched step.
    """
    van = _orthonormal_vandermonde(x, space.degree)
    sqrt_half = np.sqrt(half)[:, None]
    # coefficients in the orthonormal-on-[a,b] basis phi_j / sqrt(half)
    c = (f * w) @ van * sqrt_half
    proj = c @ van.T / sqrt_half
    err2 = float(half @ (np.abs(f - proj) ** 2 @ w))
    norm2 = float(half @ (np.abs(f) ** 2 @ w))
    norm = math.sqrt(norm2)
    if norm == 0.0:
        raise DomainError("zero-norm target: relative error undefined")
    error = math.sqrt(err2)
    return ProjectionResult(
        coefficients=tuple(c),
        error_l2=error,
        relative_error=error / norm,
        dof=space.dof,
    )


def l2_project(
    target: Callable[[float], complex],
    space: PiecewisePolySpace,
    quad_order: int | None = None,
) -> ProjectionResult:
    """L2-orthogonal projection of target onto the space, element by element.

    target is called once per quadrature node with a float. quad_order is
    the per-element Gauss-Legendre size; the default 2p + 16 resolves
    (polynomial) x (smooth amplitude) integrands, which the doubling
    self-test in the suite confirms. Raises on quad_order <= p (the
    coefficients would alias) and on a zero-norm target (the relative
    error would be undefined).
    """
    nodes, half, x, w = _quadrature(space, quad_order)
    f = np.fromiter((target(float(t)) for t in nodes.flat), dtype=complex, count=nodes.size)
    return _project_values(f.reshape(nodes.shape), half, x, w, space)


def best_approx_error(
    cfg: ShadowConfig,
    n: int,
    sigma: float,
    p: int,
    quad_order: int | None = None,
) -> ProjectionResult:
    """Best-approximation error of the shadow-boundary amplitude V on the
    graded mesh: build shadow_mesh(cfg, n, sigma), project s -> V(s), with
    V evaluated on every element's nodes in one call.
    """
    mesh = shadow_mesh(cfg, n, sigma)
    space = PiecewisePolySpace(mesh=mesh, degree=p)
    nodes, half, x, w = _quadrature(space, quad_order)
    return _project_values(amplitude_v(nodes, cfg), half, x, w, space)


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

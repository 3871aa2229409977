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

from shadowhp._arrays import first, is_count
from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.errors import ConfigError, DomainError

#: relative tolerance below which neighbouring mesh candidates are merged
MERGE_RTOL = 1e-12

#: largest Gauss-Legendre rule, per element, that a projection may use
_MAX_RULE = 256

#: smallest normal double; a squared norm or error below it has lost digits
_TINY = float(np.finfo(float).tiny)

#: Most layers a geometric mesh may have, checked before any point is
#: built. A mesh of n layers has at most 2n + 1 elements of at most _MAX_RULE
#: rule nodes, so the cap bounds the V nodes of one row: `project --p 120
#: --n 1024 --sigma 0.999` peaks at 110 MB resident, where `--p 4
#: --n 80000 --sigma 0.99999` reached 329 MB. The cap lies above the 400
#: layers at which the default grading 0.15 underflows, so that depth
#: still fails as a ConfigError of its own sweep row.
MAX_LAYERS = 1024

__all__ = [
    "MAX_LAYERS",
    "MERGE_RTOL",
    "Mesh",
    "PiecewisePolySpace",
    "ProjectionResult",
    "best_approx_error",
    "check_degree",
    "check_grading",
    "check_quad_order",
    "gauss_legendre_rule",
    "geometric_mesh",
    "l2_project",
    "shadow_mesh",
]


def check_degree(p: int) -> None:
    """Raise ConfigError, naming p, unless the degree is an integer >= 0
    (see is_count: a numpy integer is one, a bool is not)."""
    if not (is_count(p) and p >= 0):
        raise ConfigError(f"degree must be a nonnegative integer, got {p}")


def check_grading(sigma: float) -> None:
    """Raise ConfigError, naming sigma, unless the grading lies in (0, 1)."""
    if not 0.0 < sigma < 1.0:
        raise ConfigError(f"grading must lie in (0, 1), got {sigma}")


def check_quad_order(p: int, quad_order: int | None) -> int:
    """The per-element rule size for degree p: quad_order, or 2p + 16 when
    it is None. Raise ConfigError unless the size is an integer in
    [p + 1, 256]; a smaller rule would alias the coefficients, so under
    the default p is at most 120.
    """
    m = 2 * p + 16 if quad_order is None else quad_order
    if not (is_count(m) and p + 1 <= m <= _MAX_RULE):
        name = "quad_order (the default 2p + 16)" if quad_order is None else "quad_order"
        raise ConfigError(
            f"{name} for degree {p} must be an integer in [{p + 1}, {_MAX_RULE}], got {m}"
        )
    return m


@dataclass(frozen=True)
class Mesh:
    """Finite, strictly increasing breakpoints of a one-dimensional mesh."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a mesh needs at least two points")
        if not all(map(operator.lt, self.points, self.points[1:])):
            raise DomainError("mesh points must be strictly increasing")
        # a NaN fails the order above, so only an end can be infinite
        for end in (self.points[0], self.points[-1]):
            if not math.isfinite(end):
                raise DomainError(f"mesh points must be finite, got {end}")

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

    space is the space projected on, so space.mesh holds the elements in
    mesh order; element_err2 holds each element's squared L2 error, in that
    order and read-only; error_l2 is the square root of their sum. Results
    compare and hash by identity, as their array fields cannot be compared
    by value.
    """

    space: PiecewisePolySpace
    coefficients: tuple[np.ndarray, ...]
    error_l2: float
    relative_error: float
    element_err2: np.ndarray

    @property
    def dof(self) -> int:
        return self.space.dof

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

    Before any point is built, a length that is not positive and finite
    raises DomainError; a layer count outside [1, MAX_LAYERS] (or a bool), a
    sigma outside (0, 1) and a finest point that underflows to 0.0 raise
    ConfigError.
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise DomainError(f"length must be positive and finite, got {length}")
    if not (is_count(n) and n >= 1):
        raise ConfigError(f"layer count must be an integer >= 1, got {n}")
    if n > MAX_LAYERS:
        raise ConfigError(f"layer count {n} exceeds MAX_LAYERS = {MAX_LAYERS}")
    check_grading(sigma)
    if sigma ** (n - 1) * length == 0.0:
        raise ConfigError(f"{n} layers at grading {sigma} put the finest point at 0.0")
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
    if not (is_count(m) and 1 <= m <= _MAX_RULE):
        raise ConfigError(
            f"quad_order (rule size) must be an integer in [1, {_MAX_RULE}], got {m}"
        )
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
    when the squared L2 error or norm leaves the double range, DomainError
    when the norm is 0 or either square is subnormal.
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
    if norm2 == 0.0:
        what = "the target's squared L2 norm underflows to 0" if f.any() else "zero-norm target"
        raise DomainError(f"{what}: relative error undefined")
    if norm2 < _TINY or 0.0 < err2 < _TINY:
        raise DomainError(
            f"squared L2 error {err2!r} or norm {norm2!r} of the target is subnormal: "
            "digits lost"
        )
    norm = math.sqrt(norm2)
    error = math.sqrt(err2)
    element_err2 = half * rows
    element_err2.flags.writeable = False
    return ProjectionResult(
        space=space,
        coefficients=tuple(c),
        error_l2=error,
        relative_error=error / norm,
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
    which the doubling self-test in the suite confirms. Raises DomainError
    on quad_order <= p (the coefficients would alias), on target values that
    are not finite (None reads as NaN) or of another shape, naming the first
    such node or both shapes, on a target whose squared norm is 0 (the
    relative error would be undefined), and where the squared norm, or a
    nonzero squared error, is subnormal (its digits are lost).
    """
    scalar = isinstance(space_or_spaces, PiecewisePolySpace)
    spaces = [space_or_spaces] if scalar else list(space_or_spaces)
    if not spaces:
        raise DomainError("l2_project needs at least one space")
    quads = [_quadrature(space, quad_order) for space in spaces]
    nodes = np.concatenate([q.ravel() for q, _, _ in quads])
    values = np.asarray(target(nodes), dtype=complex)
    if values.shape not in ((), nodes.shape):
        raise DomainError(f"target values of shape {values.shape} for nodes of shape {nodes.shape}")
    values = np.broadcast_to(values, nodes.shape)
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"target not finite at s = {first(nodes, bad)!r}: {first(values, bad)!r}")
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
    A scalar call is a one-row batch, so both give the same bits. Anything
    else (a mix of the two, empty or unequal sequences) raises DomainError.
    """
    scalar = np.ndim(n) == 0
    if np.ndim(p) != np.ndim(n) or not scalar and not 0 < len(n) == len(p):
        raise DomainError(
            "n and p must be integers or nonempty sequences of equal length, "
            f"got {n!r} and {p!r}"
        )
    ns, ps = ([n], [p]) if scalar else (list(n), list(p))
    spaces = [
        PiecewisePolySpace(mesh=shadow_mesh(cfg, layers, sigma), degree=degree)
        for layers, degree in zip(ns, ps)
    ]
    return l2_project(lambda s: amplitude_v(s, cfg), spaces[0] if scalar else spaces, quad_order)

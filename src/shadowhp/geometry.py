"""Analytic continuation of r(s) and mu(s) and the region predicates.

The distance function r(s) = sqrt(R^2 + s^2 - 2 s R cos(beta)) has branch
points at s = R e^{+-i beta}; the continuation is taken in the plane cut
along the two vertical rays {R cos(beta) + i v : |v| >= R sin(beta)}, where
the radicand is real and nonpositive. All predicates classify boundary
points as outside (the regions are open sets).

On the real line r, mu, h and the Fresnel argument of F(mu) are real, and
real input stays real (`_arrays.as_points`): it is evaluated in float64 up
to F's Faddeeva call. The values are bit for bit those of the same points
given as complex numbers. The operations on x + 0j in complex128 carry
exact zeros in the imaginary parts, so their real parts are the float64
operations. The one exception is division: numpy divides by c + 0j with
Smith's algorithm (CACM Algorithm 116, 1962), which computes x * (1 / c)
rather than x / c. So the divisions of mu (here) and h (in amplitudes) are
written x * (1.0 / y), which is the same in both arithmetics. A square
root of a real value that rounding left negative is taken in complex
(`_principal_sqrt`), as the complex path takes it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from shadowhp._arrays import as_points, first, unwrap
from shadowhp.errors import BranchCutError, DomainError

#: half-angle of the sector in the strip condition, arctan sqrt((11+5*sqrt(5))/2)
THETA_STAR = math.atan(math.sqrt((11.0 + 5.0 * math.sqrt(5.0)) / 2.0))

#: branch-cut proximity tolerance, relative to R
CUT_RTOL = 1e-14

__all__ = [
    "CUT_RTOL",
    "THETA_STAR",
    "KnifeGeometry",
    "RegionLabel",
    "check_wavenumber",
    "cut_distance",
    "mu_of_s",
    "r_of_s",
    "region_label",
    "strip_S_delta",
]


def check_wavenumber(k: float) -> None:
    """Raise DomainError, naming k, unless the wavenumber is finite and positive."""
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"wavenumber k must be finite and positive, got {k}")


def _finite_point(s: complex) -> complex:
    # region_label makes this check inline: it labels one point per call
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"argument must have finite components, got {s!r}")
    return s


@dataclass(frozen=True)
class KnifeGeometry:
    """Half-line edge at the origin, observation line at distance R from it
    with inclination beta; points on the line are (-R + s cos beta, s sin beta).
    """

    R: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise DomainError(f"R must be a positive finite length, got {self.R}")
        if not (0.0 < self.beta < math.pi):
            raise DomainError(f"beta must lie in (0, pi), got {self.beta}")

    @functools.cached_property
    def _region_constants(self) -> tuple[float, float, float, float, float, bool]:
        # what region_label and the cut checks need, once per instance:
        # cos(beta), R cos(beta) and R sin(beta) (where the cuts sit), the cut
        # tolerance, R^2 cos(beta)^2 (the ellipse) and beta <= pi/2
        R, beta = self.R, self.beta
        cb = math.cos(beta)
        return (
            cb,
            R * cb,
            R * math.sin(beta),
            CUT_RTOL * R,
            R * R * cb * cb,
            beta <= 0.5 * math.pi,
        )


class RegionLabel(NamedTuple):
    in_cut_plane: bool
    in_R: bool
    in_ellipse: bool
    in_S: bool


#: the 16 possible labels, indexed by in_cut_plane, in_R, in_ellipse, in_S
_LABELS = tuple(RegionLabel(*flags) for flags in itertools.product((False, True), repeat=4))


def _cut_distance(x: float, y: float, r_cos_beta: float, r_sin_beta: float) -> float:
    # distance from x + iy to the cuts {R cos(beta) + i v : |v| >= R sin(beta)}
    dx = abs(x - r_cos_beta)
    dy = r_sin_beta - abs(y)
    if dy <= 0.0:
        return dx
    return math.hypot(dx, dy)


def cut_distance(s: complex, geo: KnifeGeometry) -> float:
    """Euclidean distance from s to the two vertical branch cuts. Raises
    DomainError for a non-finite s.
    """
    s = _finite_point(s)
    _, r_cb, r_sb, *_ = geo._region_constants
    return _cut_distance(s.real, s.imag, r_cb, r_sb)


def _principal_sqrt(x: np.ndarray) -> np.ndarray:
    """np.sqrt(x), taken in complex when a real x holds a negative value: the
    root that the same values as complex numbers with +0 imaginary parts get.
    """
    if x.dtype.kind == "f" and (x < 0.0).any():
        x = x.astype(complex)
    return np.sqrt(x)


def _require_off_cut(s: np.ndarray, geo: KnifeGeometry) -> None:
    # cut_distance over a whole array; cut_distance itself stays scalar for
    # region_label, which labels one point at a time
    _, r_cb, r_sb, cut_tol, *_ = geo._region_constants
    if r_sb > cut_tol and s.dtype.kind == "f":
        # a real point lies at least R sin(beta) from the cuts
        return
    dx = np.abs(s.real - r_cb)
    dy = r_sb - np.abs(s.imag)
    on_cut = np.where(dy <= 0.0, dx, np.hypot(dx, dy)) <= cut_tol
    if on_cut.any():
        point = complex(first(s, on_cut))
        raise BranchCutError(f"s = {point!r} lies on a branch cut of r(s) for {geo}")


def r_of_s(s, geo: KnifeGeometry):
    """Principal branch of sqrt(R^2 + s^2 - 2 s R cos beta), for a scalar
    or an array of s.

    Off the cuts the radicand avoids the negative real axis, so the
    principal square root is the analytic continuation of the positive
    distance reached at real s. Raises DomainError for a non-finite s,
    BranchCutError for an s on a cut and OverflowError for an s whose
    radicand leaves the double range, naming the first such point.
    """
    s, scalar = as_points(s)
    _require_off_cut(s, geo)
    # an overflow here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = geo.R * geo.R + s * s - 2.0 * s * geo.R * math.cos(geo.beta)
    big = ~np.isfinite(radicand)
    if big.any():
        raise OverflowError(f"r(s)^2 overflows at s = {complex(first(s, big))!r} for {geo}")
    return unwrap(_principal_sqrt(radicand), scalar)


def mu_with_root(s, r, geo: KnifeGeometry, k: float):
    """(mu, sqrt(R - s cos(beta) + r)) at an array of points s on the line of
    geo whose r = r(s) is already known.

    Raises DomainError, naming k and the first such s, where mu is not a
    finite double: at subnormal k and R the root can underflow to 0.
    """
    root = _principal_sqrt(geo.R - s * math.cos(geo.beta) + r)
    # a division by zero or an overflow is reported by the check below;
    # x * (1.0 / y) for x / y: see the module docstring
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = math.sqrt(k) * s * math.sin(geo.beta) * (1.0 / root)
    bad = ~np.isfinite(mu)
    if bad.any():
        raise DomainError(
            f"mu(s) is not finite at s = {complex(first(s, bad))!r} for k = {k!r}: "
            f"sqrt(R - s cos(beta) + r(s)) = {complex(first(root, bad))!r}"
        )
    return mu, root


def mu_of_s(s, geo: KnifeGeometry, k: float):
    """Fresnel argument mu(s) = sqrt(k) s sin(beta) / sqrt(R - s cos(beta) + r(s)),
    for a scalar or an array of s.

    Satisfies mu(s)^2 = k (-R + s cos(beta) + r(s)); nonnegative for real
    s >= 0.
    """
    check_wavenumber(k)
    s, scalar = as_points(s)
    mu, _ = mu_with_root(s, r_of_s(s, geo), geo, k)
    return unwrap(mu, scalar)


def region_label(s: complex, geo: KnifeGeometry) -> RegionLabel:
    """Classify s against the cut plane, the analyticity region, the ellipse
    and the sector-strip. Total function; boundary points count as outside.

    Labels one point per call; the per-geometry constants are computed once
    per KnifeGeometry and the result is one of 16 shared, frozen labels.
    """
    s = complex(s)
    x, y = s.real, s.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"argument must have finite components, got {s!r}")
    cb, r_cb, r_sb, cut_tol, r2_cb2, acute = geo._region_constants

    in_cut_plane = _cut_distance(x, y, r_cb, r_sb) > cut_tol

    # multiplied-out ellipse membership: degenerates to the empty set at
    # beta = pi/2 without a division by cos(beta)
    dx = x - r_cb
    in_ellipse = y * y * cb * cb + dx * dx < r2_cb2

    upper = y > 0.0
    right = x > r_cb
    if acute:
        in_region = upper or right or in_ellipse
    else:
        in_region = upper or (right and not in_ellipse)
    in_region = in_region and in_cut_plane

    in_S = s != 0.0 and abs(y) < r_sb and abs(cmath.phase(s)) < THETA_STAR

    return _LABELS[8 * in_cut_plane + 4 * in_region + 2 * in_ellipse + in_S]


def strip_S_delta(s: complex, geo: KnifeGeometry, delta: float) -> bool:
    """Membership in the delta-contracted strip-sector: |Im s| < (1-delta) R sin(beta)
    and |arg s| < theta*. Raises DomainError for a non-finite s.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    s = _finite_point(s)
    if s == 0.0:
        return False
    return (
        abs(s.imag) < (1.0 - delta) * geo.R * math.sin(geo.beta)
        and abs(cmath.phase(s)) < THETA_STAR
    )

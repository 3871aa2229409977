"""Analytic continuation of r(s) and mu(s) and the region predicates.

The distance function r(s) = sqrt(R^2 + s^2 - 2 s R cos(beta)) has branch
points at s = R e^{+-i beta}; the continuation is taken in the plane cut
along the two vertical rays {R cos(beta) + i v : |v| >= R sin(beta)}, where
the radicand is real and nonpositive. All predicates classify boundary
points as outside (the regions are open sets).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
    "cut_distance",
    "mu_of_s",
    "r_of_s",
    "region_label",
    "strip_S_delta",
]


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


@dataclass(frozen=True)
class RegionLabel:
    in_cut_plane: bool
    in_R: bool
    in_ellipse: bool
    in_S: bool


def cut_distance(s: complex, geo: KnifeGeometry) -> float:
    """Euclidean distance from s to the two vertical branch cuts."""
    s = complex(s)
    dx = abs(s.real - geo.R * math.cos(geo.beta))
    dy = geo.R * math.sin(geo.beta) - abs(s.imag)
    if dy <= 0.0:
        return dx
    return math.hypot(dx, dy)


def _require_off_cut(s: np.ndarray, geo: KnifeGeometry) -> None:
    # cut_distance over a whole array; cut_distance itself stays scalar for
    # region_label, which labels one point at a time
    dx = np.abs(s.real - geo.R * math.cos(geo.beta))
    dy = geo.R * math.sin(geo.beta) - np.abs(s.imag)
    on_cut = np.where(dy <= 0.0, dx, np.hypot(dx, dy)) <= CUT_RTOL * geo.R
    if on_cut.any():
        raise BranchCutError(f"s = {first(s, on_cut)!r} lies on a branch cut of r(s) for {geo}")


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
        raise OverflowError(f"r(s)^2 overflows at s = {first(s, big)!r} for {geo}")
    return unwrap(np.sqrt(radicand), scalar)


def mu_with_root(s, r, R: float, cb, sb, k: float):
    """(mu, sqrt(R - s cb + r)) at points s with r = r(s) already known;
    cb and sb are cos(beta) and sin(beta), scalars or arrays like s.

    Raises DomainError, naming k and the first such s, where mu is not a
    finite double: at subnormal k and R the root can underflow to 0.
    """
    root = np.sqrt(R - s * cb + r)
    # a division by zero or an overflow is reported by the check below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = math.sqrt(k) * s * sb / root
    bad = ~np.isfinite(mu)
    if bad.any():
        raise DomainError(
            f"mu(s) is not finite at s = {first(s, bad)!r} for k = {k!r}: "
            f"sqrt(R - s cos(beta) + r(s)) = {first(root, bad)!r}"
        )
    return mu, root


def mu_of_s(s, geo: KnifeGeometry, k: float):
    """Fresnel argument mu(s) = sqrt(k) s sin(beta) / sqrt(R - s cos(beta) + r(s)),
    for a scalar or an array of s.

    Satisfies mu(s)^2 = k (-R + s cos(beta) + r(s)); nonnegative for real
    s >= 0.
    """
    if not k > 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    s, scalar = as_points(s)
    r = r_of_s(s, geo)
    mu, _ = mu_with_root(s, r, geo.R, math.cos(geo.beta), math.sin(geo.beta), k)
    return unwrap(mu, scalar)


def region_label(s: complex, geo: KnifeGeometry) -> RegionLabel:
    """Classify s against the cut plane, the analyticity region, the ellipse
    and the sector-strip. Total function; boundary points count as outside.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"argument must have finite components, got {s!r}")
    R, beta = geo.R, geo.beta
    cb = math.cos(beta)

    in_cut_plane = cut_distance(s, geo) > CUT_RTOL * R

    # multiplied-out ellipse membership: degenerates to the empty set at
    # beta = pi/2 without a division by cos(beta)
    dx = s.real - R * cb
    in_ellipse = s.imag * s.imag * cb * cb + dx * dx < R * R * cb * cb

    upper = s.imag > 0.0
    right = s.real > R * cb
    if beta <= 0.5 * math.pi:
        in_region = upper or right or in_ellipse
    else:
        in_region = upper or (right and not in_ellipse)
    in_region = in_region and in_cut_plane

    in_S = (
        s != 0.0
        and abs(s.imag) < R * math.sin(beta)
        and abs(cmath.phase(s)) < THETA_STAR
    )

    return RegionLabel(
        in_cut_plane=in_cut_plane, in_R=in_region, in_ellipse=in_ellipse, in_S=in_S
    )


def strip_S_delta(s: complex, geo: KnifeGeometry, delta: float) -> bool:
    """Membership in the delta-contracted strip-sector: |Im s| < (1-delta) R sin(beta)
    and |arg s| < theta*.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    s = complex(s)
    if s == 0.0:
        return False
    return (
        abs(s.imag) < (1.0 - delta) * geo.R * math.sin(geo.beta)
        and abs(cmath.phase(s)) < THETA_STAR
    )

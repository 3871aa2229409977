"""Analytic continuation of r(s) and mu(s), on arrays of s.

The distance function r(s) = sqrt(R^2 + s^2 - 2 s R cos(beta)) has branch
points at s = R e^{+-i beta}; the continuation is taken in the plane cut
along the two vertical rays {R cos(beta) + i v : |v| >= R sin(beta)}, where
the radicand is real and nonpositive. KnifeGeometry, the region predicates
and cut_distance have their one home in regions, which needs no numpy.

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

import math

import numpy as np

from shadowhp._arrays import as_points, first
from shadowhp.errors import BranchCutError, DomainError
from shadowhp.regions import KnifeGeometry, cut_distance

__all__ = ["check_wavenumber", "mu_of_s", "r_of_s"]


def check_wavenumber(k: float) -> None:
    """Raise DomainError, naming k, unless the wavenumber is finite and positive."""
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"wavenumber k must be finite and positive, got {k}")


def _principal_sqrt(x: np.ndarray) -> np.ndarray:
    """np.sqrt(x), taken in complex when a real x holds a negative value: the
    root that the same values as complex numbers with +0 imaginary parts get.
    """
    if x.dtype.kind == "f" and (x < 0.0).any():
        x = x.astype(complex)
    return np.sqrt(x)


def _require_off_cut(s: np.ndarray, geo: KnifeGeometry) -> None:
    _, r_cb, r_sb, cut_tol, *_ = geo._region_constants
    if r_sb > cut_tol and s.dtype.kind == "f":
        # a real point lies at least R sin(beta) from the cuts
        return
    # the cuts lie on the line Re s = R cos(beta), so only a point within
    # cut_tol of it can be on one; cut_distance (regions) measures those
    for point in s[np.abs(s.real - r_cb) <= cut_tol]:
        if cut_distance(point, geo) <= cut_tol:
            raise BranchCutError(f"s = {complex(point)!r} lies on a branch cut of r(s) for {geo}")


def r_of_s(s, geo: KnifeGeometry):
    """Principal branch of sqrt(R^2 + s^2 - 2 s R cos beta), on an array
    of s, returned in its shape.

    Off the cuts the radicand avoids the negative real axis, so the
    principal square root is the analytic continuation of the positive
    distance reached at real s. Raises DomainError for a non-finite s,
    BranchCutError for an s on a cut and OverflowError for an s whose
    radicand leaves the double range, naming the first such point.
    """
    s = as_points(s)
    _require_off_cut(s, geo)
    # an overflow here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = geo.R * geo.R + s * s - 2.0 * s * geo.R * math.cos(geo.beta)
    big = ~np.isfinite(radicand)
    if big.any():
        raise OverflowError(f"r(s)^2 overflows at s = {complex(first(s, big))!r} for {geo}")
    return _principal_sqrt(radicand)


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
    on an array of s, returned in its shape.

    Satisfies mu(s)^2 = k (-R + s cos(beta) + r(s)); nonnegative for real
    s >= 0.
    """
    check_wavenumber(k)
    s = as_points(s)
    mu, _ = mu_with_root(s, r_of_s(s, geo), geo, k)
    return mu

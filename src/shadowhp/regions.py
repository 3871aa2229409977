"""The knife-edge geometry and the region predicates, in plain Python.

KnifeGeometry fixes the observation line; region_label classifies a point
against the plane cut along the two vertical rays
{R cos(beta) + i v : |v| >= R sin(beta)} where r(s) branches, the
analyticity region, the ellipse and the sector-strip; strip_S_delta and
cut_distance are the contracted strip and the distance to the cuts. All
predicates classify boundary points as outside (the regions are open sets).

Each predicate takes one point and uses only the standard library, so
`shadowhp region` runs without numpy. region_label, called once per point
of a region command, makes one pass over the point's offsets from the cut
line and tests the cuts inline, by the same formula as cut_distance.
KnifeGeometry is a checked named tuple, not a dataclass, so the module
loads no dataclasses either (nor the inspect, ast and dis that it
imports). r(s) and mu(s), which take arrays, live in geometry.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

from shadowhp.errors import DomainError

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
    "region_label",
    "strip_S_delta",
]


def _finite_point(s: complex) -> complex:
    # region_label tests inline, one point per call, and calls this to raise
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"argument must have finite components, got {s!r}")
    return s


class KnifeGeometry(NamedTuple("_KnifeFields", [("R", float), ("beta", float)])):
    """Half-line edge at the origin, observation line at distance R from it
    with inclination beta; points on the line are (-R + s cos beta, s sin beta).

    A named tuple, so importing it needs no dataclasses. The constructor,
    _make and _replace check R and beta.
    """

    def __new__(cls, R: float, beta: float) -> KnifeGeometry:
        if not (R > 0.0 and math.isfinite(R)):
            raise DomainError(f"R must be a positive finite length, got {R}")
        if not (0.0 < beta < math.pi):
            raise DomainError(f"beta must lie in (0, pi), got {beta}")
        return super().__new__(cls, R, beta)

    @classmethod
    def _make(cls, iterable) -> KnifeGeometry:
        # the tuple base's _make (and _replace, which calls it) skips __new__
        return cls(*iterable)

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


def cut_distance(s: complex, geo: KnifeGeometry) -> float:
    """Euclidean distance from s to the two vertical branch cuts, also for
    the cut check of r(s) (geometry). Raises DomainError for a non-finite s.
    """
    s = _finite_point(s)
    _, r_cb, r_sb, *_ = geo._region_constants
    # region_label tests the same offsets from the cut line inline
    dx = abs(s.real - r_cb)
    dy = r_sb - abs(s.imag)
    if dy <= 0.0:
        return dx
    return math.hypot(dx, dy)


def region_label(s: complex, geo: KnifeGeometry) -> RegionLabel:
    """Classify s against the cut plane, the analyticity region, the ellipse
    and the sector-strip. Total function; boundary points count as outside.

    Labels one point per call, in one pass over its offsets from the cut
    line, dx = Re s - R cos(beta) and dy = R sin(beta) - |Im s|: where
    dy <= 0 the nearest cut point is level with s and the cut test is |dx|
    alone; where dy > 0 (exactly |Im s| < R sin(beta), the strip's height)
    it is hypot(dx, dy) and the sector test runs. cut_distance computes the
    same distance. The per-geometry constants are computed once per
    KnifeGeometry and the result is one of 16 shared, frozen labels.
    """
    s = complex(s)
    x, y = s.real, s.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        _finite_point(s)
    cb, r_cb, r_sb, cut_tol, r2_cb2, acute = geo._region_constants

    dx = x - r_cb
    dy = r_sb - abs(y)
    if dy <= 0.0:
        in_cut_plane = abs(dx) > cut_tol
        in_S = False
    else:
        in_cut_plane = math.hypot(dx, dy) > cut_tol
        in_S = s != 0.0 and abs(cmath.phase(s)) < THETA_STAR

    # multiplied-out ellipse membership: degenerates to the empty set at
    # beta = pi/2 without a division by cos(beta)
    in_ellipse = y * y * cb * cb + dx * dx < r2_cb2

    if not in_cut_plane:
        in_R = False
    elif y > 0.0:
        in_R = True
    elif acute:
        in_R = x > r_cb or in_ellipse
    else:
        in_R = x > r_cb and not in_ellipse

    return _LABELS[8 * in_cut_plane + 4 * in_R + 2 * in_ellipse + in_S]


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

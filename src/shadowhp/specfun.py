"""Complex Fresnel integral Fr, its bounded companion F, and the sector
bound certificate.

Fr(z) = (1/2) erfc(e^{-i pi/4} z) is entire; F(z) = e^{-i z^2} Fr(z) equals
half the Faddeeva function at the rotated argument, (1/2) w(e^{i pi/4} z),
so it stays bounded for arg z in [-pi/2, pi] and grows like
exp(|z|^2 sin(2 arg z)) in the remaining sector. big_f is one kernel call;
scipy's Faddeeva code reflects and faddeeva_w alone checks the reflection
for overflow. fresnel_fr is e^{i z^2} F(z), taken through the symmetry
Fr(z) = 1 - Fr(-z) on the half-plane Im(e^{i pi/4} z) < 0.

The independent check of both, Fr by adaptive quadrature of its defining
integral, lives with the tests (tests/oracles.py), so it shares none of
this module's arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from shadowhp._arrays import as_points, first, is_count
from shadowhp.errors import CertificationError, ConfigError
from shadowhp.kernel import faddeeva_w
from shadowhp.runio import MAX_SAMPLES

_EIPI4 = cmath.exp(0.25j * math.pi)
_EXP_MAX = 709.0  # exp overflows just above this in double precision
#: the proved |F| <= 1/2 where Im(e^{i pi/4} z) >= 0, plus an allowance for
#: the kernel's error there (scipy's Faddeeva code is accurate to about
#: 1e-13 relative)
_HALF_PLANE_MAX = 0.5 + 1e-10

__all__ = [
    "SectorBoundCert",
    "big_f",
    "fresnel_fr",
    "sector_bound_cert",
]


def _exp_overflows(iz2):
    # where e^{i z^2} or i z^2 leaves the double range; Re(i z^2) = -inf gives 0
    return (iz2.real != -np.inf) & ~((iz2.real <= _EXP_MAX) & np.isfinite(iz2.imag))


def _rotate(z: np.ndarray) -> np.ndarray:
    """e^{i pi/4} z for finite points z; OverflowError, naming the first z,
    where it leaves the double range (|z| near 1.3e308). numpy's overflow
    flag finds that case without a second pass over the array, and the
    errstate covers the multiply only, so w runs in the caller's error state.
    """
    try:
        with np.errstate(over="raise"):
            return _EIPI4 * z
    except FloatingPointError:
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(_EIPI4 * z)
        raise OverflowError(f"e^(i pi/4) z overflows at z = {first(z, bad)!r}") from None


def fresnel_fr(z):
    """Fresnel integral Fr(z) = (1/2) erfc(e^{-i pi/4} z), entire in z.

    Takes an array and returns one of its shape. Raises OverflowError,
    naming the first such point, when the factor e^{i z^2} exceeds the
    double range (only possible in the half-plane handled by the symmetry
    reflection) or i z^2 itself does (|z| beyond about 1.3e154), except
    where Re(i z^2) is -inf and the factor is 0; and, as big_f does, where
    e^{i pi/4} z leaves the double range.
    """
    z = as_points(z)
    # Fr(z) = 1 - Fr(-z) carries the half-plane Im(e^{i pi/4} z) < 0 into
    # the one where e^{i z^2} w(e^{i pi/4} z) is computed directly
    flip = _rotate(z).imag < 0.0
    zz = np.where(flip, -z, z)
    # an overflow here is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        iz2 = 1j * zz * zz
    over = _exp_overflows(iz2)
    if over.any():
        raise OverflowError(f"exp(i z^2) overflows at z = {complex(first(z, over))!r}")
    fr = np.exp(iz2) * big_f(zz)
    return np.where(flip, 1.0 - fr, fr)


def big_f(z):
    """F(z) = e^{-i z^2} Fr(z) = (1/2) w(e^{i pi/4} z): one Faddeeva call.

    Takes an array and returns one of its shape; F alone also takes a
    scalar and returns a Python complex, as the benchmark's mpmath check
    (perfbench/checks.py) calls it (ROADMAP item 19). Bounded on arg z in
    [-pi/2, pi]; in the growth sector arg z in (-pi, -pi/2) it equals
    e^{-i z^2} - F(-z), a reflection that scipy's Faddeeva code applies.
    faddeeva_w raises OverflowError, naming the first rotated point
    e^{i pi/4} z, once Re(-i z^2) exceeds its bound of 708. Where the
    rotation itself leaves the double range (|z| near 1.3e308), the
    OverflowError names the first such z instead.
    """
    scalar = np.ndim(z) == 0
    out = 0.5 * faddeeva_w(_rotate(as_points([z] if scalar else z)))
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class SectorBoundCert:
    """Certificate for the boundedness of F on arg z in [-pi/2, pi].

    c_upper is the proved constant, the same in every record; max_observed
    is the sampled maximum of |F| (the sharp value is about 1.17), reached at
    the sample point z_max. Construction fails, naming z_max, rather than
    recording a violated bound. sector_bound_cert evaluates F only where
    Im(e^{i pi/4} z) < 0: the proof below bounds |F| by 1/2 on the other
    sample points, so they cannot hold a maximum above 1/2.

    Proof that |F| <= 3/2 < c_upper = 1.59 there. For Im zeta >= 0,

        w(zeta) = pi^(-1/2) int_0^inf exp(-t^2/4 + i zeta t) dt,

    an integral representation in DLMF section 7.7, whose integrand is at
    most exp(-t^2/4) in modulus, so |w(zeta)| <= 1. Hence |F(z)| =
    |w(e^{i pi/4} z)| / 2 <= 1/2 where Im(e^{i pi/4} z) >= 0, that is on
    arg z in [-pi/4, 3 pi/4]. On the rest of the sector, arg z
    in [-pi/2, -pi/4) or (3 pi/4, pi], -z lies in that half-plane and
    sin(2 arg z) <= 0, so F(z) = e^{-i z^2} - F(-z) gives
    |F(z)| <= exp(|z|^2 sin(2 arg z)) + 1/2 <= 3/2.
    """

    c_upper: ClassVar[float] = 1.59
    n_samples: int
    max_observed: float
    z_max: complex

    def __post_init__(self) -> None:
        # written so that a NaN maximum fails too
        if not self.max_observed <= self.c_upper:
            raise CertificationError(
                f"|F({self.z_max!r})| = {self.max_observed} "
                f"exceeds the sector bound {self.c_upper}"
            )


@functools.lru_cache(maxsize=4)
def _cert_sample(n_samples: int) -> tuple[np.ndarray, int, np.ndarray]:
    """What the cert evaluates, cached per n_samples, so shared and read-only:
    its points, how many of them are bounded-sector points, and the growth
    envelopes of the rest.

    The bounded-sector sample has n_samples points: the 25 x 40 polar grid
    (angle-major), then seeded (angle, radius) draws from one
    Generator.uniform call on [-pi/2, pi) x [1e-3, 40), angle first in each
    row: the values of as many per-draw uniform calls. Of these only the
    points with Im(e^{i pi/4} z) < 0 are kept, in sample order: big_f hands
    w the same product e^{i pi/4} z, and |F| <= 1/2 is proved on the others
    (SectorBoundCert), so the cert need not evaluate them. Then come the
    21 x 20 growth-sector points (angles open at both ends, angle-major),
    with envelopes e^X, X = |z|^2 sin(2 arg z) <= 693.
    """
    thetas = np.linspace(-0.5 * math.pi, math.pi, 25)
    grid = np.geomspace(0.05, 40.0, 40) * np.exp(1j * thetas)[:, None]
    m = n_samples - grid.size
    th, rad = np.random.default_rng(0).uniform((-0.5 * math.pi, 1e-3), (math.pi, 40.0), (m, 2)).T
    bounded = np.concatenate((grid.ravel(), rad * np.exp(1j * th)))
    bounded = bounded[(_EIPI4 * bounded).imag < 0.0]
    thetas = np.linspace(-math.pi + 0.02, -0.5 * math.pi - 0.02, 21)
    growth = np.sin(2.0 * thetas)
    r_cap = np.minimum(40.0, np.sqrt(693.0 / np.maximum(growth, 1e-6)))
    radii = np.geomspace(0.05, r_cap, 20, axis=1)
    zp = radii * np.exp(1j * thetas)[:, None]
    envelope = np.exp(radii * radii * growth[:, None]).ravel()
    points = np.concatenate((bounded, zp.ravel()))
    points.flags.writeable = envelope.flags.writeable = False
    return points, bounded.size, envelope


def sector_bound_cert(n_samples: int) -> SectorBoundCert:
    """Sample |F| over the bounded sector and certify its bounds.

    Uses a deterministic boundary-inclusive polar grid (the maximum of |F|
    sits on the arg z = -pi/2 ray, so that ray must be in the sample)
    topped up with seeded uniform draws to reach n_samples. Also checks the
    two-sided growth estimate

        e^X - 1/2 <= |F(z)| <= e^X + 1/2,   X = |z|^2 sin(2 arg z),

    on a growth-sector grid. One big_f call evaluates F on the growth grid
    and on the sample points where Im(e^{i pi/4} z) < 0 (_cert_sample); on
    the others |F| <= 1/2 is proved (SectorBoundCert), so the record is
    the one a full evaluation gives once the evaluated maximum exceeds
    _HALF_PLANE_MAX. Any violation raises CertificationError naming the
    point, and so does an evaluated maximum at or below _HALF_PLANE_MAX,
    which a skipped point might hold. n_samples must be an integer in
    [1000, MAX_SAMPLES]: the sample holds at least the 1000 points of its
    grid, and the cap bounds its memory.
    """
    if not (is_count(n_samples) and 1000 <= n_samples <= MAX_SAMPLES):
        raise ConfigError(
            f"n_samples must be an integer in [1000, {MAX_SAMPLES}], got {n_samples}"
        )
    points, n_bounded, envelope = _cert_sample(n_samples)
    mags = np.abs(big_f(points))
    i_max = int(np.argmax(mags[:n_bounded]))
    # the record's own check is the bound check
    cert = SectorBoundCert(n_samples, float(mags[i_max]), complex(points[i_max]))

    # the +-1/2 corridor is widened by a relative slack because once e^X
    # exceeds ~1e16 the corridor is narrower than one ulp of either side
    zp, mag = points[n_bounded:], mags[n_bounded:]
    violated = np.abs(mag - envelope) > 0.5 + 1e-10 * envelope
    if violated.any():
        raise CertificationError(
            f"growth bound violated at z = {first(zp, violated)!r}: "
            f"|F| = {first(mag, violated)}, envelope = {first(envelope, violated)}"
        )

    if not cert.max_observed > _HALF_PLANE_MAX:
        raise CertificationError(
            f"the largest evaluated |F|, |F({cert.z_max!r})| = {cert.max_observed}, "
            f"does not exceed {_HALF_PLANE_MAX}, so a skipped point might hold the maximum"
        )
    return cert

"""Complex Fresnel integral Fr, its bounded companion F, and validation oracles.

Fr(z) = (1/2) erfc(e^{-i pi/4} z) is entire; F(z) = e^{-i z^2} Fr(z) equals
half the Faddeeva function at the rotated argument, (1/2) w(e^{i pi/4} z),
so it stays bounded for arg z in [-pi/2, pi] and grows like
exp(|z|^2 sin(2 arg z)) in the remaining sector. big_f is one kernel call;
scipy's Faddeeva code reflects and faddeeva_w alone checks for overflow.

Two independent evaluation routes are kept deliberately separate:
fresnel_fr / big_f run on the Faddeeva kernel w, while
fresnel_oracle integrates the defining improper integral along a rotated
contour with adaptive quadrature. Their agreement is the primary
correctness check for both. The oracle imports scipy.integrate when it
runs, so a process that never calls it (every CLI command) does not load
that package.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from shadowhp._arrays import as_points, first, unwrap
from shadowhp.errors import CertificationError, ConfigError, DomainError, OracleError
from shadowhp.kernel import faddeeva_w

_EIPI4 = cmath.exp(0.25j * math.pi)
_SQRTPI = math.sqrt(math.pi)
_EXP_MAX = 709.0  # exp overflows just above this in double precision

__all__ = [
    "MAX_SAMPLES",
    "SectorBoundCert",
    "big_f",
    "fresnel_fr",
    "fresnel_oracle",
    "sector_bound_cert",
]


def fresnel_fr(z):
    """Fresnel integral Fr(z) = (1/2) erfc(e^{-i pi/4} z), entire in z.

    Takes a scalar or an array. Raises OverflowError, naming the first such
    point, when the factor e^{i z^2} exceeds the double range (only
    possible in the half-plane handled by the symmetry reflection) or
    i z^2 itself does (|z| beyond about 1.3e154), except where Re(i z^2)
    is -inf and the factor is 0.
    """
    z, scalar = as_points(z)
    # Fr(z) = 1 - Fr(-z) carries the half-plane Im(e^{i pi/4} z) < 0 into
    # the one where e^{i z^2} w(e^{i pi/4} z) is computed directly
    flip = (_EIPI4 * z).imag < 0.0
    zz = np.where(flip, -z, z)
    # an overflow here is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        iz2 = 1j * zz * zz
    over = (iz2.real != -np.inf) & ~((iz2.real <= _EXP_MAX) & np.isfinite(iz2.imag))
    if over.any():
        raise OverflowError(f"exp(i z^2) overflows at z = {complex(first(z, over))!r}")
    fr = 0.5 * np.exp(iz2) * faddeeva_w(_EIPI4 * zz)
    return unwrap(np.where(flip, 1.0 - fr, fr), scalar)


def big_f(z):
    """F(z) = e^{-i z^2} Fr(z) = (1/2) w(e^{i pi/4} z): one Faddeeva call.

    Takes a scalar or an array. Bounded on arg z in [-pi/2, pi]; in the
    growth sector arg z in (-pi, -pi/2) it equals e^{-i z^2} - F(-z), a
    reflection that scipy's Faddeeva code applies. faddeeva_w raises
    OverflowError, naming the first rotated point e^{i pi/4} z, once
    Re(-i z^2) exceeds its bound of 708.
    """
    z, scalar = as_points(z)
    return unwrap(0.5 * faddeeva_w(_EIPI4 * z), scalar)


def fresnel_oracle(z: complex, tol: float = 1e-13) -> complex:
    """Independent Fr(z) via adaptive quadrature, kernel-free.

    Substituting t = z + e^{i pi/4} u into the defining improper integral
    rotates the tail onto the steepest-descent direction:

        Fr(z) = e^{i z^2} / sqrt(pi) * int_0^inf exp(-u^2 + b u) du,
        b = 2 i e^{i pi/4} z.

    When Re b > 0 the symmetry Fr(z) = 1 - Fr(-z) is applied first so the
    integrand decays from u = 0 on; the integral is then truncated where
    the envelope falls below exp(-746) and handed to adaptive quadrature.
    Raises OracleError when the declared quadrature error exceeds tol, and
    DomainError, naming its shape, for an array of more than one point.
    """
    # imported here, not at module level: scipy.integrate costs every process
    # ~0.25 s and ~26 MB of start-up, and only this oracle uses it
    from scipy.integrate import quad

    pts, _ = as_points(z)
    if pts.size != 1:
        raise DomainError(f"fresnel_oracle takes one point, got an array of shape {pts.shape}")
    z = complex(pts.item())
    if tol < 1e-14:
        raise DomainError(f"oracle tolerance must be >= 1e-14, got {tol}")
    b = 2j * _EIPI4 * z
    if b.real > 0.0:
        return 1.0 - fresnel_oracle(-z, tol)
    c = b.real
    upper = 0.5 * (c + math.sqrt(c * c + 4.0 * 746.0))

    def f_re(u: float) -> float:
        return cmath.exp(-u * u + b * u).real

    def f_im(u: float) -> float:
        return cmath.exp(-u * u + b * u).imag

    # full_output=1 silences the roundoff warning; the declared error is
    # checked explicitly below instead
    out_re = quad(f_re, 0.0, upper, epsabs=1e-15, epsrel=tol / 4, limit=400, full_output=1)
    out_im = quad(f_im, 0.0, upper, epsabs=1e-15, epsrel=tol / 4, limit=400, full_output=1)
    integral = complex(out_re[0], out_im[0])
    declared = math.hypot(out_re[1], out_im[1])
    if declared > tol * max(abs(integral), 1e-300):
        raise OracleError(
            f"quadrature declared error {declared:.3e} exceeds tol {tol:.3e} at z = {z!r}"
        )
    iz2 = 1j * z * z
    if iz2.real > _EXP_MAX:
        raise OverflowError(f"exp(i z^2) overflows at z = {z!r}")
    return cmath.exp(iz2) * integral / _SQRTPI


@dataclass(frozen=True)
class SectorBoundCert:
    """Certificate for the boundedness of F on arg z in [-pi/2, pi].

    c_upper is the proved constant; max_observed is the sampled maximum of
    |F| (the sharp value is about 1.17), reached at the sample point z_max.
    Construction fails, naming z_max, rather than recording a violated
    bound.
    """

    c_upper: float
    n_samples: int
    max_observed: float
    z_max: complex

    def __post_init__(self) -> None:
        if self.max_observed > self.c_upper:
            raise CertificationError(
                f"|F({self.z_max!r})| = {self.max_observed} "
                f"exceeds the sector bound {self.c_upper}"
            )


_C_UPPER = 1.59
#: largest sample sector_bound_cert draws: 100x the command's default,
#: about 80 MB at the ~80 bytes a sample costs
MAX_SAMPLES = 1_000_000


@functools.lru_cache(maxsize=4)
def _sector_sample(n_samples: int) -> np.ndarray:
    """The points of the bounded-sector check: the 25 x 40 polar grid
    (angle-major), then seeded (angle, radius) draws up to n_samples from one
    Generator.uniform call on [-pi/2, pi) x [1e-3, 40), angle first in each
    row: the values of as many per-draw uniform calls.

    Cached per n_samples like gauss_legendre_rule, so the array is shared
    between callers and therefore read-only.
    """
    thetas = np.linspace(-0.5 * math.pi, math.pi, 25)
    radii = np.geomspace(0.05, 40.0, 40)
    grid = (radii * np.exp(1j * thetas)[:, None]).ravel()
    m = max(n_samples - grid.size, 0)
    th, rad = np.random.default_rng(0).uniform((-0.5 * math.pi, 1e-3), (math.pi, 40.0), (m, 2)).T
    points = np.concatenate((grid, rad * np.exp(1j * th)))[:n_samples]
    points.flags.writeable = False
    return points


@functools.cache
def _growth_sample() -> tuple[np.ndarray, np.ndarray]:
    """Growth-sector points z (21 angles, open at both ends, x 20 radii) and
    envelopes e^X, X = |z|^2 sin(2 arg z) <= 693; cached, so read-only."""
    thetas = np.linspace(-math.pi + 0.02, -0.5 * math.pi - 0.02, 21)
    growth = np.sin(2.0 * thetas)
    r_cap = np.minimum(40.0, np.sqrt(693.0 / np.maximum(growth, 1e-6)))
    radii = np.geomspace(0.05, r_cap, 20, axis=1)
    zp = radii * np.exp(1j * thetas)[:, None]
    envelope = np.exp(radii * radii * growth[:, None])
    zp.flags.writeable = envelope.flags.writeable = False
    return zp, envelope


def sector_bound_cert(n_samples: int) -> SectorBoundCert:
    """Sample |F| over the bounded sector and certify its bounds.

    Uses a deterministic boundary-inclusive polar grid (the maximum of |F|
    sits on the arg z = -pi/2 ray, so that ray must be in the sample)
    topped up with seeded uniform draws to reach n_samples. Also checks the
    two-sided growth estimate

        e^X - 1/2 <= |F(z)| <= e^X + 1/2,   X = |z|^2 sin(2 arg z),

    on the growth-sector grid of _growth_sample. Any violation raises
    CertificationError naming the point. n_samples must be an integer in
    [1000, MAX_SAMPLES]: the sample holds at least the 1000 points of its
    grid, and the cap bounds its memory.
    """
    if not (isinstance(n_samples, int) and 1000 <= n_samples <= MAX_SAMPLES):
        raise ConfigError(f"n_samples must lie in [1000, {MAX_SAMPLES}], got {n_samples}")
    points = _sector_sample(n_samples)
    mags = np.abs(big_f(points))
    i_max = int(np.argmax(mags))
    # the record's own check is the bound check
    cert = SectorBoundCert(_C_UPPER, len(points), float(mags[i_max]), complex(points[i_max]))

    # the +-1/2 corridor is widened by a relative slack because once e^X
    # exceeds ~1e16 the corridor is narrower than one ulp of either side
    zp, envelope = _growth_sample()
    mag = np.abs(big_f(zp))
    violated = np.abs(mag - envelope) > 0.5 + 1e-10 * envelope
    if violated.any():
        raise CertificationError(
            f"growth bound violated at z = {first(zp, violated)!r}: "
            f"|F| = {first(mag, violated)}, envelope = {first(envelope, violated)}"
        )

    return cert

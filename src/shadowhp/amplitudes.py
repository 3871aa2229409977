"""Knife-edge diffraction field, its geometrical-optics decompositions, the
amplitude functions h and g along a line past the edge, and the
shadow-boundary amplitude V with its companion GO trace.

Conventions fixed here and validated by the finite-difference and
continuity checks below:

- E(r, psi) = e^{-i k r cos psi} Fr(-sqrt(2 k r) cos(psi/2)); even and
  4 pi-periodic in psi.
- Points on the observation line are x(s) = (-R + s cos beta, s sin beta);
  the unit normal is n = (sin beta, -cos beta). This is the orientation
  for which the chain rule reproduces the -i k sin(beta) F(mu) term of g.
- Heaviside H(0) = 1/2 and sign(0) = 0, which make the decompositions exact
  on the shadow boundary itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from shadowhp._arrays import as_points, first, unwrap
from shadowhp.errors import DomainError
from shadowhp.geometry import mu_of_s  # noqa: F401  (perfbench/tracer.py wraps it here)
from shadowhp.geometry import KnifeGeometry, check_wavenumber, mu_with_root, r_of_s
from shadowhp.specfun import big_f, fresnel_fr

_E3IPI4 = cmath.exp(0.75j * math.pi)
_SQRTPI = math.sqrt(math.pi)
#: step of de_dn_check's central finite difference
_FD_STEP = 1e-6

__all__ = [
    "FieldPoint",
    "ShadowConfig",
    "amplitude_v",
    "de_dn_check",
    "e_field",
    "e_go",
    "e_remainder_check",
    "g_of_s",
    "gtd_far_field",
    "h_of_s",
    "psi_go",
]


def _heaviside(t: float) -> float:
    if t > 0.0:
        return 1.0
    return 0.5 if t == 0.0 else 0.0


def _sign(t: float) -> float:
    if t > 0.0:
        return 1.0
    return -1.0 if t < 0.0 else 0.0


@dataclass(frozen=True)
class FieldPoint:
    """Polar observation point (r, psi) around the edge tip; psi is
    4 pi-periodic for the field itself, but the GO splitting is stated on
    the physical sheet psi in (0, 2 pi).
    """

    r: float
    psi: float

    def __post_init__(self) -> None:
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise DomainError(f"radius must be a finite nonnegative length, got {self.r}")
        if not math.isfinite(self.psi):
            raise DomainError(f"angle must be finite, got {self.psi}")


@dataclass(frozen=True)
class ShadowConfig:
    """Nonconvex-side parameters: wavenumber k, incidence angle alpha in
    (pi/2, 3pi/2), side lengths l_nc and l_nc_prime.

    Derived quantities: the shadow-boundary arc length s_sb, the effective
    edge distance r_alpha, and the inclinations beta_plus / beta_minus of
    the two half-line problems whose traces build V.
    """

    k: float
    alpha: float
    l_nc: float
    l_nc_prime: float

    def __post_init__(self) -> None:
        check_wavenumber(self.k)
        if not 0.5 * math.pi < self.alpha < 1.5 * math.pi:
            raise DomainError(
                f"alpha must lie strictly inside (pi/2, 3pi/2), got {self.alpha}"
            )
        for name, length in (("l_nc", self.l_nc), ("l_nc_prime", self.l_nc_prime)):
            if not (math.isfinite(length) and length > 0.0):
                raise DomainError(f"side length {name} must be finite and positive, got {length}")

    @property
    def s_sb(self) -> float:
        return self.l_nc_prime * abs(math.tan(math.pi - self.alpha))

    @property
    def r_alpha(self) -> float:
        return self.l_nc_prime / math.cos(math.pi - self.alpha)

    @property
    def beta_plus(self) -> float:
        return 0.5 * math.pi + abs(math.pi - self.alpha)

    @property
    def beta_minus(self) -> float:
        return 0.5 * math.pi - abs(math.pi - self.alpha)

    @property
    def geo_plus(self) -> KnifeGeometry:
        return KnifeGeometry(self.r_alpha, self.beta_plus)

    @property
    def geo_minus(self) -> KnifeGeometry:
        return KnifeGeometry(self.r_alpha, self.beta_minus)


def _finite_phase(z: complex, **inputs: float) -> complex:
    """z, a phase i k x of a wave or the Fresnel argument built from k x.
    Raise OverflowError, naming the inputs, when it is not finite: then k r
    or k s has left the double range and the field has no value.
    """
    if not cmath.isfinite(z):
        named = ", ".join(f"{name} = {value!r}" for name, value in inputs.items())
        raise OverflowError(f"the phase of the wave is not finite at {named}")
    return z


def e_field(p: FieldPoint, k: float) -> complex:
    """Total knife-edge field E(r, psi) = e^{-i k r cos psi} Fr(-sqrt(2kr) cos(psi/2))."""
    check_wavenumber(k)
    mu = _finite_phase(-math.sqrt(2.0 * k * p.r) * math.cos(0.5 * p.psi), k=k, r=p.r, psi=p.psi)
    phase = _finite_phase(-1j * k * p.r * math.cos(p.psi), k=k, r=p.r, psi=p.psi)
    return cmath.exp(phase) * fresnel_fr(mu)


def e_go(p: FieldPoint, k: float) -> complex:
    """Geometrical-optics part H(pi - psi) e^{-i k r cos psi}, H(0) = 1/2."""
    check_wavenumber(k)
    if not 0.0 < p.psi < 2.0 * math.pi:
        raise DomainError(f"the GO splitting needs psi in (0, 2pi), got {p.psi}")
    h = _heaviside(math.pi - p.psi)
    if h == 0.0:
        return 0j
    return h * cmath.exp(_finite_phase(-1j * k * p.r * math.cos(p.psi), k=k, r=p.r, psi=p.psi))


def e_remainder_check(p: FieldPoint, k: float) -> float:
    """Residual of the decomposition E = E_GO - sign(pi - psi) F(mu) e^{ikr}
    with mu = sqrt(kr(1 + cos psi)) >= 0; zero up to roundoff for all
    admissible points, including psi = pi where sign(0) = 0 and H(0) = 1/2
    match exactly.
    """
    if not p.r > 0.0:
        raise DomainError(f"decomposition check needs r > 0, got {p.r}")
    sgn = _sign(math.pi - p.psi)
    rhs = e_go(p, k)
    if sgn != 0.0:
        mu = _finite_phase(math.sqrt(2.0 * k * p.r) * abs(math.cos(0.5 * p.psi)), k=k, r=p.r)
        rhs -= sgn * big_f(mu) * cmath.exp(_finite_phase(1j * k * p.r, k=k, r=p.r))
    return abs(e_field(p, k) - rhs)


def gtd_far_field(p: FieldPoint, k: float, include_plane_wave: bool = True) -> complex:
    """Far-field diffraction approximation with coefficient
    d(psi) = -e^{i pi/4} / (2 sqrt(2 pi) cos(psi/2)); invalid near odd
    multiples of pi where the coefficient blows up.
    """
    check_wavenumber(k)
    if not p.r > 0.0:
        raise DomainError(f"far-field evaluation needs r > 0, got {p.r}")
    c_half = math.cos(0.5 * p.psi)
    if abs(c_half) < 1e-8:
        raise DomainError(
            f"psi = {p.psi} is too close to a critical angle (odd multiple of pi)"
        )
    d = -cmath.exp(0.25j * math.pi) / (2.0 * math.sqrt(2.0 * math.pi) * c_half)
    out = d * cmath.exp(_finite_phase(1j * k * p.r, k=k, r=p.r)) / math.sqrt(k * p.r)
    if include_plane_wave:
        out += cmath.exp(_finite_phase(-1j * k * p.r * math.cos(p.psi), k=k, r=p.r, psi=p.psi))
    return out


def _h_mu(s, r, geo: KnifeGeometry, k: float):
    # h in the rationalized form of h_of_s, and mu, sharing one square root;
    # past about s = 9.5e153 the denominator overflows and h would read 0,
    # and where r(s) rounds to 0 (beta near 0 or pi, s near R cos(beta)) h
    # would read inf
    mu, root = mu_with_root(s, r, geo, k)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = 2.0 * r * (r + geo.R)
    bad = ~np.isfinite(denom) | (denom == 0.0)
    if bad.any():
        point = complex(first(s, bad))
        raise OverflowError(
            f"h(s) overflows at s = {point!r}: 2 r (r + R) = {complex(first(denom, bad))!r}"
        )
    # x * (1.0 / y) for x / y: see the geometry module docstring
    return math.sqrt(k) * (s - 2.0 * geo.R * math.cos(geo.beta)) * root * (1.0 / denom), mu


def h_of_s(s, geo: KnifeGeometry, k: float):
    """Normal derivative of mu along the line:
    h(s) = k sin(beta) (r(s) - R) / (2 r(s) mu(s)), for a scalar or an
    array of s.

    Evaluated in the rationalized form
    sqrt(k) (s - 2 R cos beta) sqrt(R - s cos beta + r) / (2 r (r + R)),
    equal by (r - R)(r + R) = s (s - 2 R cos beta); this removes the
    0/0 at s = 0, where the value is the limit -cos(beta) sqrt(k / (2R)).
    Raises OverflowError, naming the first such s, where 2 r (r + R)
    overflows (from about |s| = 9.5e153 on) or is 0 (where r(s) rounds to
    0, near s = R cos(beta) for beta within about 1e-8 of 0 or pi).
    """
    check_wavenumber(k)
    s, scalar = as_points(s)
    h, _ = _h_mu(s, r_of_s(s, geo), geo, k)
    return unwrap(h, scalar)


def g_of_s(s, geo: KnifeGeometry, k: float):
    """Normal-derivative amplitude g(s) = e^{i 3pi/4}/sqrt(pi) h(s) - i k sin(beta) F(mu(s)),
    for a scalar or an array of s.

    On the negative real axis the boundary trace satisfies the mirror rule
    g(-s; R, beta) = g(s; R, pi - beta), which is taken as the definition
    there: those points are evaluated as -s on KnifeGeometry(R, pi - beta),
    by a call of this function. Every other point, complex ones included,
    uses the analytic continuation of the formula.
    """
    check_wavenumber(k)
    s, scalar = as_points(s)
    mirror = (s.imag == 0.0) & (s.real < 0.0)
    if mirror.any():
        out = np.empty(s.shape, dtype=complex)
        out[~mirror] = g_of_s(s[~mirror], geo, k)
        if math.pi - geo.beta == math.pi:
            point = complex(first(s, mirror))
            raise DomainError(
                f"g at the negative real s = {point!r} follows the mirror rule, "
                f"which needs pi - beta to stay below pi; beta = {geo.beta!r} rounds it to pi"
            )
        out[mirror] = g_of_s(-s.real[mirror], KnifeGeometry(geo.R, math.pi - geo.beta), k)
        return unwrap(out, scalar)
    h, mu = _h_mu(s, r_of_s(s, geo), geo, k)
    return unwrap(_E3IPI4 / _SQRTPI * h - 1j * k * math.sin(geo.beta) * big_f(mu), scalar)


def de_dn_check(s: float, geo: KnifeGeometry, k: float) -> float:
    """Residual between the decomposition
    dE/dn = dE_GO/dn - sign(pi - psi) g(s) e^{i k r}   at x(s)
    and a central finite difference of E along n = (sin beta, -cos beta).

    The arc length s must be finite and positive and the point off the
    shadow boundary psi = pi (and implicitly off the screen, which real
    s > 0 guarantees).
    """
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"arc length must be finite and positive, got {s}")
    check_wavenumber(k)
    sb, cb = math.sin(geo.beta), math.cos(geo.beta)
    x1 = -geo.R + s * cb
    x2 = s * sb
    psi = math.atan2(x2, x1)
    if abs(psi - math.pi) < 1e-8:
        raise DomainError(f"x({s}) lies on the shadow boundary psi = pi")

    def field_at(t: float) -> complex:
        y1 = x1 + t * sb
        y2 = x2 - t * cb
        return e_field(FieldPoint(math.hypot(y1, y2), math.atan2(y2, y1)), k)

    fd = (field_at(_FD_STEP) - field_at(-_FD_STEP)) / (2.0 * _FD_STEP)
    r = math.hypot(x1, x2)
    go = -1j * k * sb * _heaviside(math.pi - psi) * cmath.exp(-1j * k * x1)
    analytic = go - _sign(math.pi - psi) * g_of_s(s, geo, k) * cmath.exp(1j * k * r)
    return abs(fd - analytic)


def amplitude_v(s, cfg: ShadowConfig):
    """Shadow-boundary amplitude
    V(s) = -H(s - s_sb) g+(s - s_sb) + H(s_sb - s) g-(s_sb - s) - g-(s + s_sb)
    with g+-(t) = g(t; r_alpha, beta+-) and H(0) = 1/2, for a scalar or an
    array of arc lengths.

    beta+ = pi - beta-, so by the mirror rule of g_of_s one call on the
    points s_sb - s and s + s_sb of the minus geometry gives every term; only
    a point at s_sb also evaluates g+(0), for H(0) = 1/2.

    Defined for all real s >= 0 so the smoothness checks can follow the
    shadow boundary wherever alpha puts it. An arc length of complex type
    raises DomainError naming its first point.
    """
    s, scalar = as_points(s)
    if s.dtype.kind == "c":
        raise DomainError(f"arc length must be real, got {complex(s.flat[0])!r}")
    if (s < 0.0).any():
        raise DomainError(f"arc length must be finite and >= 0, got {first(s, s < 0.0)}")
    g = g_of_s(np.concatenate((cfg.s_sb - s, s + cfg.s_sb), axis=None), cfg.geo_minus, cfg.k)
    jump = g[: s.size].reshape(s.shape)
    out = np.where(s > cfg.s_sb, 0.0 - jump, jump)
    at = s == cfg.s_sb
    if at.any():
        out[at] = (0.0 - 0.5 * g_of_s(0.0, cfg.geo_plus, cfg.k)) + 0.5 * jump[at]
    out -= g[s.size :].reshape(s.shape)
    return unwrap(out, scalar)


def psi_go(s: float, cfg: ShadowConfig) -> complex:
    """Classical GO trace on the side x(s) = (-s, -l_nc_prime), unit normal (0, 1):

        Psi_GO(s) = H(s - s_sb_i) du^i/dn - H(s_sb_r - s) du^r/dn,

    incident direction d^i = (-sin alpha, cos alpha), reflected
    d^r = (sin alpha, cos alpha), shadow points s_sb_i = l_nc_prime tan(pi - alpha)
    = -s_sb_r. For alpha below pi - arctan(l_nc / l_nc_prime) the incident
    shadow point lies beyond the side and the whole side is dark.
    """
    if not math.isfinite(s):
        raise DomainError(f"arc length must be finite, got {s}")
    s_sb_i = cfg.l_nc_prime * math.tan(math.pi - cfg.alpha)
    ca = math.cos(cfg.alpha)
    sa = math.sin(cfg.alpha)
    k = cfg.k
    out = 0j
    h_inc = _heaviside(s - s_sb_i)
    if h_inc != 0.0:
        phase = _finite_phase(1j * k * (s * sa - cfg.l_nc_prime * ca), s=s, k=k)
        out += h_inc * 1j * k * ca * cmath.exp(phase)
    h_ref = _heaviside(-s_sb_i - s)
    if h_ref != 0.0:
        phase = _finite_phase(-1j * k * (s * sa + cfg.l_nc_prime * ca), s=s, k=k)
        out -= h_ref * 1j * k * ca * cmath.exp(phase)
    return out


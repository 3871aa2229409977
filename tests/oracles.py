"""Independent references and residual checks that the tests run against
the library. No command calls them, so they live beside the tests, and
the one independent route to Fr never shares the library's arithmetic.

- fresnel_oracle: Fr(z) by adaptive quadrature of its defining integral
  on a rotated contour. It calls neither the Faddeeva kernel nor big_f or
  fresnel_fr; its agreement with fresnel_fr is acceptance 1.
- e_go, e_remainder_check, gtd_far_field and de_dn_check: the field's
  geometrical-optics part, the far-field approximation, and the residuals
  of the field decompositions (acceptance 3 and 4), in the conventions of
  shadowhp.amplitudes: H(0) = 1/2 and sign(0) = 0.
- fit_rate and RateFit: the exponential-rate fit of acceptance 7a.
- dip_scan and DipScanResult: the error-dip locator over alpha.
- bernstein_rho: the convergence ratio of acceptance 8.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from shadowhp._arrays import as_points
from shadowhp.amplitudes import FieldPoint, _finite_phase, _heaviside, e_field, g_of_s
from shadowhp.errors import DomainError
from shadowhp.experiments import ExperimentGrid, run_grid
from shadowhp.geometry import check_wavenumber
from shadowhp.regions import KnifeGeometry
from shadowhp.specfun import _exp_overflows, big_f

_EIPI4 = cmath.exp(0.25j * math.pi)
_SQRTPI = math.sqrt(math.pi)

#: relative tolerance to which fresnel_oracle certifies its quadrature
_ORACLE_TOL = 1e-13

#: step of de_dn_check's central finite difference
_FD_STEP = 1e-6


class OracleError(RuntimeError):
    """The adaptive-quadrature oracle could not certify the requested accuracy."""


def fresnel_oracle(z: complex) -> complex:
    """Independent Fr(z) via adaptive quadrature, kernel-free.

    Substituting t = z + e^{i pi/4} u into the defining improper integral
    rotates the tail onto the steepest-descent direction:

        Fr(z) = e^{i z^2} / sqrt(pi) * int_0^inf exp(-u^2 + b u) du,
        b = 2 i e^{i pi/4} z.

    When Re b > 0 the symmetry Fr(z) = 1 - Fr(-z) is applied first so the
    integrand decays from u = 0 on; the integral is then truncated where
    the envelope falls below exp(-746) and handed to adaptive quadrature.
    Raises OverflowError where fresnel_fr does, before any quadrature;
    OracleError when the declared quadrature error exceeds the relative
    tolerance _ORACLE_TOL; DomainError, naming its shape, for an array of
    more than one point.
    """
    pts = as_points(np.atleast_1d(z))
    if pts.size != 1:
        raise DomainError(f"fresnel_oracle takes one point, got an array of shape {pts.shape}")
    z = complex(pts.item())
    iz2 = 1j * z * z
    if _exp_overflows(iz2):
        raise OverflowError(f"exp(i z^2) overflows at z = {z!r}")
    b = 2j * _EIPI4 * z
    if b.real > 0.0:
        return 1.0 - fresnel_oracle(-z)
    c = b.real
    upper = 0.5 * (c + math.sqrt(c * c + 4.0 * 746.0))

    def f_re(u: float) -> float:
        return cmath.exp(-u * u + b * u).real

    def f_im(u: float) -> float:
        return cmath.exp(-u * u + b * u).imag

    # full_output=1 silences the roundoff warning; the declared error is
    # checked explicitly below instead
    opts = dict(epsabs=1e-15, epsrel=_ORACLE_TOL / 4, limit=400, full_output=1)
    out_re = quad(f_re, 0.0, upper, **opts)
    out_im = quad(f_im, 0.0, upper, **opts)
    integral = complex(out_re[0], out_im[0])
    declared = math.hypot(out_re[1], out_im[1])
    if declared > _ORACLE_TOL * max(abs(integral), 1e-300):
        raise OracleError(
            f"quadrature declared error {declared:.3e} exceeds tol {_ORACLE_TOL:.3e} at z = {z!r}"
        )
    return cmath.exp(iz2) * integral / _SQRTPI


def _sign(t: float) -> float:
    if t > 0.0:
        return 1.0
    return -1.0 if t < 0.0 else 0.0


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
        f_mu = complex(big_f(np.array([mu]))[0])
        rhs -= sgn * f_mu * cmath.exp(_finite_phase(1j * k * p.r, k=k, r=p.r))
    return abs(e_field(p, k) - rhs)


def gtd_far_field(p: FieldPoint, k: float) -> complex:
    """Far-field approximation of E: the incident plane wave e^{-i k r cos psi}
    plus the diffracted wave d(psi) e^{i k r} / sqrt(k r) with coefficient
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
    d = -_EIPI4 / (2.0 * math.sqrt(2.0 * math.pi) * c_half)
    out = d * cmath.exp(_finite_phase(1j * k * p.r, k=k, r=p.r)) / math.sqrt(k * p.r)
    return out + cmath.exp(_finite_phase(-1j * k * p.r * math.cos(p.psi), k=k, r=p.r, psi=p.psi))


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
    g = complex(g_of_s(np.array([s]), geo, k)[0])
    analytic = go - _sign(math.pi - psi) * g * cmath.exp(1j * k * r)
    return abs(fd - analytic)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(error) = log(C) - tau * p."""

    tau: float
    intercept: float
    r_squared: float


def fit_rate(pairs: list[tuple[float, float]]) -> RateFit:
    """Fit log(error) = intercept - tau * p over (p, error) pairs.

    Pairs with error <= 1e-14 are dropped (converged-to-roundoff tail);
    at least 4 must survive, at 2 or more distinct p. A p or error that is
    not finite (a failed row's NaN error) raises DomainError naming its pair.
    """
    for p, e in pairs:
        if not (math.isfinite(p) and math.isfinite(e)):
            raise DomainError(f"rate fit needs finite p and error, got p = {p!r}, error = {e!r}")
    kept = [(float(p), float(e)) for p, e in pairs if e > 1e-14]
    if len(kept) < 4:
        raise DomainError(
            f"rate fit needs >= 4 points above roundoff, got {len(kept)}"
        )
    distinct = sorted({p for p, _ in kept})
    if len(distinct) < 2:
        raise DomainError(f"rate fit needs >= 2 distinct p above roundoff, got p = {distinct}")
    ps = np.array([p for p, _ in kept])
    logs = np.log(np.array([e for _, e in kept]))
    slope, intercept = np.polyfit(ps, logs, 1)
    fitted = slope * ps + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(tau=float(-slope), intercept=float(intercept), r_squared=r_squared)


@dataclass(frozen=True)
class DipScanResult:
    points: tuple[tuple[float, float], ...]
    alpha_min: float
    expected_alpha: float
    within_pi_32: bool


def dip_scan(grid: ExperimentGrid, p: int = 8) -> DipScanResult:
    """Sweep the relative error over the grid's alpha values at fixed degree
    (k is the grid's smallest wavenumber; the reference setup runs at k = 16)
    and locate the error dip: the first strict interior local minimum over
    ascending alpha, falling back to the global minimum when the sampled
    landscape has no interior one. Reports whether the dip lies within
    pi/32 of the predicted pi/2 + arctan(4/9). Raises DomainError, naming
    its alpha and status, when a row of the scan failed.
    """
    if p < 6:
        raise DomainError(f"the dip is resolved only for p >= 6, got {p}")
    if len(grid.alpha_values) < 3:
        raise DomainError("dip_scan needs at least 3 alpha values")
    scan = replace(grid, k_values=(min(grid.k_values),), p_values=(p,))
    rows = run_grid(scan)
    failed = next((row for row in rows if row.status != "ok"), None)
    if failed is not None:
        raise DomainError(f"the dip scan's row at alpha = {failed.alpha!r} {failed.status}")
    points = tuple((row.alpha, row.relative_error) for row in rows)
    errs = [e for _, e in points]
    alpha_min = None
    for i in range(1, len(points) - 1):
        if errs[i] < errs[i - 1] and errs[i] < errs[i + 1]:
            alpha_min = points[i][0]
            break
    if alpha_min is None:
        alpha_min = points[int(np.argmin(errs))][0]
    expected = 0.5 * math.pi + math.atan(4.0 / 9.0)
    return DipScanResult(
        points=points,
        alpha_min=alpha_min,
        expected_alpha=expected,
        within_pi_32=abs(alpha_min - expected) <= math.pi / 32.0,
    )


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

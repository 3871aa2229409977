"""Fresnel integral, bounded companion, oracle and sector certification."""

import cmath
import math

import numpy as np
import pytest

from shadowhp.errors import CertificationError, DomainError
from shadowhp.specfun import big_f, fresnel_fr, fresnel_oracle, sector_bound_cert


def test_fr_at_zero():
    assert fresnel_fr(0.0) == 0.5 + 0j


def test_fr_symmetry_point():
    z = 1.3 + 0.4j
    assert abs(fresnel_fr(-z) + fresnel_fr(z) - 1.0) <= 1e-13


def test_fr_matches_oracle_at_two():
    a = fresnel_fr(2.0)
    b = fresnel_oracle(2.0, 1e-13)
    assert abs(a - b) <= 1e-13 * abs(b)


def test_big_f_at_zero():
    assert big_f(0.0) == 0.5 + 0j


def test_big_f_symmetry_point():
    z = 0.7 - 0.2j
    lhs = big_f(-z) + big_f(z) - cmath.exp(-1j * z * z)
    assert abs(lhs) <= 1e-13


def test_big_f_consistent_with_fr():
    rng = np.random.default_rng(21)
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = big_f(z)
        rhs = cmath.exp(-1j * z * z) * fresnel_fr(z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-300)


def test_cauchy_riemann_residual():
    # entirety proxy: df/dx + i df/dy = 0, measured against the local
    # derivative scale (|Fr| reaches e^{2|xy|} inside the disk, so an
    # absolute gate would only measure float cancellation)
    rng = np.random.default_rng(22)
    h = 1e-5
    for _ in range(100):
        rad = 5.0 * math.sqrt(rng.uniform())
        z = rad * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        dx = (fresnel_fr(z + h) - fresnel_fr(z - h)) / (2 * h)
        dy = (fresnel_fr(z + 1j * h) - fresnel_fr(z - 1j * h)) / (2 * h)
        assert abs(dx + 1j * dy) <= 1e-6 * max(1.0, abs(dx))


def test_ode_residual():
    # F'(z) = e^{i 3pi/4}/sqrt(pi) - 2 i z F(z)
    rng = np.random.default_rng(23)
    h = 1e-5
    const = cmath.exp(0.75j * math.pi) / math.sqrt(math.pi)
    for _ in range(100):
        theta = rng.uniform(-0.5 * math.pi, math.pi)
        z = rng.uniform(0.05, 10.0) * cmath.exp(1j * theta)
        fd = (big_f(z + h) - big_f(z - h)) / (2 * h)
        assert abs(fd - (const - 2j * z * big_f(z))) <= 1e-7


def test_fr_overflow_raises():
    with pytest.raises(OverflowError):
        fresnel_fr(complex(-21.0, 21.0))


def test_big_f_growth_sector_overflow_raises():
    with pytest.raises(OverflowError):
        big_f(40.0 * cmath.exp(-0.75j * math.pi))


def test_big_f_growth_sector_value():
    z = 2.0 * cmath.exp(-0.75j * math.pi)
    mag = abs(big_f(z))
    envelope = math.exp(4.0)
    assert envelope - 0.5 <= mag <= envelope + 0.5


def test_oracle_at_zero():
    assert abs(fresnel_oracle(0.0, 1e-13) - 0.5) <= 1e-13


def test_oracle_symmetry():
    a = fresnel_oracle(1 + 1j, 1e-13)
    b = fresnel_oracle(-1 - 1j, 1e-13)
    assert abs(a + b - 1.0) <= 1e-12


def test_oracle_rejects_too_tight_tolerance():
    with pytest.raises(DomainError):
        fresnel_oracle(1.0, 1e-15)


def test_non_finite_input_rejected():
    with pytest.raises(DomainError):
        fresnel_fr(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        big_f(complex(0.0, math.inf))


def test_sector_cert_requires_min_samples():
    with pytest.raises(DomainError):
        sector_bound_cert(999)


def test_sector_cert_passes_and_sees_the_true_maximum():
    cert = sector_bound_cert(10000)
    assert cert.n_samples == 10000
    assert cert.max_observed <= cert.c_upper == 1.59
    assert 1.10 <= cert.max_observed <= 1.25


def test_sector_cert_dataclass_enforces_invariant():
    from shadowhp.specfun import SectorBoundCert

    with pytest.raises(CertificationError):
        SectorBoundCert(c_upper=1.59, n_samples=1000, max_observed=1.60)


def _plane_points(n: int, seed: int) -> np.ndarray:
    # bounded and growth sectors alike, inside the range where nothing overflows
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 6.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


def test_scalar_array_parity():
    pts = _plane_points(3000, 24)
    for fn in (big_f, fresnel_fr):
        batch = fn(pts)
        assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
        scalar = [fn(complex(z)) for z in pts]
        assert all(type(v) is complex for v in scalar)
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(fn(pts.reshape(60, 50)), batch.reshape(60, 50))


def test_array_input_rejects_one_bad_point():
    fine = _plane_points(10, 25)
    with pytest.raises(OverflowError, match="exp"):
        big_f(np.append(fine, 40.0 * cmath.exp(-0.75j * math.pi)))
    with pytest.raises(OverflowError, match="exp"):
        fresnel_fr(np.append(fine, complex(-21.0, 21.0)))
    for fn in (big_f, fresnel_fr):
        with pytest.raises(DomainError, match="nan"):
            fn(np.append(fine, complex(0.5, math.nan)))


def test_sector_sample_matches_the_per_draw_loop():
    from shadowhp.specfun import _sector_sample

    points = []
    for th in np.linspace(-0.5 * math.pi, math.pi, 25):
        for rad in np.geomspace(0.05, 40.0, 40):
            points.append(rad * cmath.exp(1j * th))
    rng = np.random.default_rng(0)
    while len(points) < 10000:
        th = rng.uniform(-0.5 * math.pi, math.pi)
        rad = rng.uniform(1e-3, 40.0)
        points.append(rad * cmath.exp(1j * th))
    np.testing.assert_array_equal(_sector_sample(10000), np.array(points))
    assert _sector_sample(1000).size == 1000


def test_sector_sample_is_shared_and_read_only():
    from shadowhp.specfun import _sector_sample

    points = _sector_sample(2000)
    assert _sector_sample(2000) is points
    with pytest.raises(ValueError):
        points[0] = 0.0
    np.testing.assert_array_equal(points, _sector_sample.__wrapped__(2000))


def test_sector_cert_growth_check_names_the_violating_point(monkeypatch):
    import shadowhp.specfun as specfun

    # |F| = 0 passes the bounded-sector maximum but not the growth corridor,
    # which the first growth point already leaves (e^X - 1/2 > 0 there)
    monkeypatch.setattr(specfun, "big_f", lambda z: np.zeros(np.shape(z), dtype=complex))
    with pytest.raises(CertificationError, match=r"growth bound violated at z = \("):
        sector_bound_cert(1000)

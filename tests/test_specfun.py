"""Fresnel integral, bounded companion, oracle and sector certification."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from shadowhp.errors import CertificationError, ConfigError, DomainError
from shadowhp.specfun import _EIPI4, big_f, fresnel_fr, fresnel_oracle, sector_bound_cert


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


def test_fr_raises_where_i_z2_overflows():
    # past |z| of about 1.3e154, i z^2 is not finite; it read nan + nan i
    for z in (1e200, 1e200j, -1e200j):
        with pytest.raises(OverflowError, match=re.escape(f"at z = {complex(z)!r}")):
            fresnel_fr(z)
    with pytest.raises(OverflowError, match=re.escape(repr(1e200j))):
        fresnel_fr(np.array([0.5, 2.0 + 1.0j, 1e200j, 1e200]))
    # where Re(i z^2) is -inf the factor e^{i z^2} is 0 and Fr stays finite
    assert fresnel_fr(complex(1e154, 1e154)) == 0.0
    assert fresnel_fr(complex(-1e154, -1e154)) == 1.0
    assert fresnel_fr(complex(1e300, 1e300)) == 0.0


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


def test_oracle_rejects_an_array_naming_its_shape():
    for z, shape in ((np.array([1.0, 2.0]), r"\(2,\)"), (np.ones((2, 3), complex), r"\(2, 3\)")):
        with pytest.raises(DomainError, match=f"takes one point.*shape {shape}"):
            fresnel_oracle(z)
    # one point as an array of one element is still one point
    assert fresnel_oracle(np.array([2.0]), 1e-13) == fresnel_oracle(2.0, 1e-13)


def test_non_finite_input_rejected():
    with pytest.raises(DomainError):
        fresnel_fr(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        big_f(complex(0.0, math.inf))


def test_sector_cert_requires_min_samples():
    for n_samples in (999, 2000.0, True):
        with pytest.raises(ConfigError, match=rf"n_samples must lie in .*, got {n_samples}$"):
            sector_bound_cert(n_samples)


def test_sector_cert_takes_a_numpy_integer():
    assert sector_bound_cert(np.int64(1000)) == sector_bound_cert(1000)


def test_sector_cert_passes_and_sees_the_true_maximum():
    cert = sector_bound_cert(10000)
    assert cert.n_samples == 10000
    assert cert.max_observed <= cert.c_upper == 1.59
    assert 1.10 <= cert.max_observed <= 1.25
    # the maximum sits on the arg z = -pi/2 ray of the sample's grid
    assert abs(big_f(cert.z_max)) == pytest.approx(cert.max_observed, rel=1e-15)
    assert cert.z_max.real == pytest.approx(0.0, abs=1e-14) and cert.z_max.imag < 0.0


def test_sector_cert_dataclass_enforces_invariant():
    from shadowhp.specfun import SectorBoundCert

    with pytest.raises(
        CertificationError, match=re.escape("|F((0.5-2j))| = 1.6 exceeds the sector bound 1.59")
    ):
        SectorBoundCert(c_upper=1.59, n_samples=1000, max_observed=1.60, z_max=0.5 - 2j)
    assert SectorBoundCert(1.59, 1000, 1.59, 0.5 - 2j).z_max == 0.5 - 2j


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


def test_growth_sample_is_shared_and_read_only():
    from shadowhp.specfun import _growth_sample

    zp, envelope = _growth_sample()
    assert _growth_sample()[0] is zp and zp.shape == envelope.shape == (21, 20)
    for arr in (zp, envelope):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    for cached, fresh in zip(_growth_sample(), _growth_sample.__wrapped__()):
        np.testing.assert_array_equal(cached, fresh)


def test_sector_cert_growth_check_names_the_violating_point(monkeypatch):
    import shadowhp.specfun as specfun

    # |F| = 0 passes the bounded-sector maximum but not the growth corridor,
    # which the first growth point already leaves (e^X - 1/2 > 0 there)
    monkeypatch.setattr(specfun, "big_f", lambda z: np.zeros(np.shape(z), dtype=complex))
    with pytest.raises(CertificationError, match=r"growth bound violated at z = \("):
        sector_bound_cert(1000)


def big_f_reference(z: complex) -> complex:
    # F(z) = e^{-i z^2} erfc(e^{-i pi/4} z) / 2 at 40 digits, kernel-free
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-1j * zm * zm) * mpmath.erfc(mpmath.exp(-0.25j * mpmath.pi) * zm) / 2)


def _seeded_points(seed: int, n: int, lo: float, hi: float) -> np.ndarray:
    # arg z uniform on (lo, hi], |z| log-uniform on [1e-3, 40], capped so
    # that X = |z|^2 sin(2 arg z) <= 600 keeps e^X inside the double range
    rng = np.random.default_rng(seed)
    theta = hi - (hi - lo) * rng.random(n)
    radius = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), n))
    radius = np.minimum(radius, np.sqrt(600.0 / np.maximum(np.sin(2.0 * theta), 1e-300)))
    return radius * np.exp(1j * theta)


@pytest.mark.parametrize(
    "seed, lo, hi",
    [
        (31, -math.pi, math.pi),  # the whole plane
        (32, -0.5 * math.pi, -0.25 * math.pi),  # bounded, once reflected in Python
        (33, 0.75 * math.pi, math.pi),  # bounded, once reflected in Python
        (34, -math.pi, -0.5 * math.pi),  # the growth sector
    ],
)
def test_big_f_matches_mpmath(seed, lo, hi):
    pts = _seeded_points(seed, 150, lo, hi)
    got = big_f(pts)
    for z, value in zip(pts, got):
        want = big_f_reference(complex(z))
        assert abs(value - want) <= 1e-12 * abs(want), f"z={complex(z)!r}"


def test_big_f_is_one_kernel_call(monkeypatch):
    import shadowhp.specfun as specfun

    # the kernel sees every rotated point as it is, none reflected first
    calls = []
    kernel = specfun.faddeeva_w

    def counted(zeta):
        calls.append(zeta)
        return kernel(zeta)

    monkeypatch.setattr(specfun, "faddeeva_w", counted)
    pts = _seeded_points(35, 2000, -math.pi, math.pi)
    big_f(pts)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], _EIPI4 * pts)


def test_big_f_overflow_edge_is_the_kernel_bound():
    # on the arg z = -3pi/4 ray, Re(-zeta^2) = Re(-i z^2) = |z|^2
    ray = cmath.exp(-0.75j * math.pi)
    above = math.sqrt(708.0) * (1.0 + 1e-12) * ray
    zeta = complex((_EIPI4 * np.array([above]))[0])
    with pytest.raises(OverflowError, match=re.escape(f"at z = {zeta!r}: exp(708.0)")):
        big_f(above)
    with pytest.raises(OverflowError, match=re.escape(repr(zeta))):
        big_f(np.array([0.5, above, 2.0 * above]))
    below = math.sqrt(708.0) * (1.0 - 1e-12) * ray
    value = big_f(below)
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value) == pytest.approx(math.exp(708.0), rel=1e-6)

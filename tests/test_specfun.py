"""Fresnel integral, bounded companion, oracle and sector certification."""

import cmath
import math
import re

import mpmath
import numpy as np
import oracles
import pytest
from oracles import OracleError, fresnel_oracle

import shadowhp.kernel
import shadowhp.specfun
from shadowhp.errors import CertificationError, ConfigError, DomainError
from shadowhp.specfun import _EIPI4, big_f, fresnel_fr, sector_bound_cert


def test_fr_at_zero():
    assert fresnel_fr([0.0])[0] == 0.5 + 0j


def test_fr_symmetry_point():
    z = 1.3 + 0.4j
    assert abs(fresnel_fr([-z])[0] + fresnel_fr([z])[0] - 1.0) <= 1e-13


def test_fr_matches_oracle_at_two():
    a = fresnel_fr([2.0])[0]
    b = fresnel_oracle(2.0)
    assert abs(a - b) <= 1e-13 * abs(b)


def test_big_f_at_zero():
    assert big_f([0.0])[0] == 0.5 + 0j


def test_big_f_symmetry_point():
    z = 0.7 - 0.2j
    lhs = big_f([-z])[0] + big_f([z])[0] - cmath.exp(-1j * z * z)
    assert abs(lhs) <= 1e-13


def test_big_f_consistent_with_fr():
    rng = np.random.default_rng(21)
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = big_f([z])[0]
        rhs = cmath.exp(-1j * z * z) * fresnel_fr([z])[0]
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
        dx = (fresnel_fr([z + h])[0] - fresnel_fr([z - h])[0]) / (2 * h)
        dy = (fresnel_fr([z + 1j * h])[0] - fresnel_fr([z - 1j * h])[0]) / (2 * h)
        assert abs(dx + 1j * dy) <= 1e-6 * max(1.0, abs(dx))


def test_ode_residual():
    # F'(z) = e^{i 3pi/4}/sqrt(pi) - 2 i z F(z)
    rng = np.random.default_rng(23)
    h = 1e-5
    const = cmath.exp(0.75j * math.pi) / math.sqrt(math.pi)
    for _ in range(100):
        theta = rng.uniform(-0.5 * math.pi, math.pi)
        z = rng.uniform(0.05, 10.0) * cmath.exp(1j * theta)
        fd = (big_f([z + h])[0] - big_f([z - h])[0]) / (2 * h)
        assert abs(fd - (const - 2j * z * big_f([z])[0])) <= 1e-7


def test_fr_overflow_raises():
    with pytest.raises(OverflowError):
        fresnel_fr([complex(-21.0, 21.0)])


def test_fr_raises_where_i_z2_overflows():
    # past |z| of about 1.3e154, i z^2 is not finite; it read nan + nan i
    for z in (1e200, 1e200j, -1e200j):
        with pytest.raises(OverflowError, match=re.escape(f"at z = {complex(z)!r}")):
            fresnel_fr([z])
    with pytest.raises(OverflowError, match=re.escape(repr(1e200j))):
        fresnel_fr(np.array([0.5, 2.0 + 1.0j, 1e200j, 1e200]))
    # where Re(i z^2) is -inf the factor e^{i z^2} is 0 and Fr stays finite
    assert fresnel_fr([complex(1e154, 1e154)])[0] == 0.0
    assert fresnel_fr([complex(-1e154, -1e154)])[0] == 1.0
    assert fresnel_fr([complex(1e300, 1e300)])[0] == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rotation_overflow_names_the_callers_z(sign):
    # e^{i pi/4} z leaves the double range though z is finite: numpy warned
    # "overflow encountered in multiply" and w named the rotated point
    z = sign * complex(1.7e308, 1.7e308)
    for f in (big_f, fresnel_fr):
        with pytest.raises(OverflowError, match=re.escape(f"overflows at z = {z!r}")):
            f([z])
        with pytest.raises(OverflowError, match=re.escape(f"at z = {z!r}")):
            f(np.array([0.5, 2.0 + 1.0j, z, -z]))


def test_big_f_growth_sector_overflow_raises():
    with pytest.raises(OverflowError):
        big_f([40.0 * cmath.exp(-0.75j * math.pi)])


def test_big_f_growth_sector_value():
    z = 2.0 * cmath.exp(-0.75j * math.pi)
    mag = abs(big_f([z])[0])
    envelope = math.exp(4.0)
    assert envelope - 0.5 <= mag <= envelope + 0.5


def test_oracle_at_zero():
    assert abs(fresnel_oracle(0.0) - 0.5) <= 1e-13


def test_oracle_symmetry():
    a = fresnel_oracle(1 + 1j)
    b = fresnel_oracle(-1 - 1j)
    assert abs(a + b - 1.0) <= 1e-12


@pytest.mark.parametrize("z", [1e155, 1e200])
def test_oracle_overflows_where_fresnel_fr_does(z, monkeypatch):
    # i z^2 is not finite there; fresnel_fr's rule rejects it before either
    # quadrature runs
    monkeypatch.setattr(oracles, "quad", lambda *a, **kw: pytest.fail("quad ran"))
    for f in (fresnel_fr, fresnel_oracle):
        with pytest.raises(OverflowError, match=re.escape(f"overflows at z = {complex(z)!r}")):
            f([z])


def test_oracle_error_when_the_quadrature_cannot_meet_tol():
    with pytest.raises(OracleError, match=r"exceeds tol 1\.000e-13 at z = \(100000000\+0j\)"):
        fresnel_oracle(1e8)


def test_oracle_rejects_an_array_naming_its_shape():
    for z, shape in ((np.array([1.0, 2.0]), r"\(2,\)"), (np.ones((2, 3), complex), r"\(2, 3\)")):
        with pytest.raises(DomainError, match=f"takes one point.*shape {shape}"):
            fresnel_oracle(z)
    # one point as an array of one element is still one point
    assert fresnel_oracle(np.array([2.0])) == fresnel_oracle(2.0)


def test_oracle_needs_none_of_the_library_routes_to_fr(monkeypatch):
    # the oracle is the independent check of w, big_f and fresnel_fr, so it
    # must still give Fr with all three unavailable, wherever they are bound
    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle called the library's Fr")

    for module in (shadowhp.kernel, shadowhp.specfun, oracles):
        for name in ("faddeeva_w", "big_f", "fresnel_fr"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unavailable)
    z = 0.5 + 0.5j
    with mpmath.workdps(30):
        exact = complex(0.5 * mpmath.erfc(mpmath.exp(-0.25j * mpmath.pi) * mpmath.mpc(z)))
    assert abs(fresnel_oracle(z) - exact) <= 1e-12 * abs(exact)


def test_sector_cert_requires_min_samples():
    for n_samples in (999, 2000.0, True):
        with pytest.raises(
            ConfigError, match=rf"n_samples must be an integer in .*, got {n_samples}$"
        ):
            sector_bound_cert(n_samples)


def test_sector_cert_takes_a_numpy_integer():
    assert sector_bound_cert(np.int64(1000)) == sector_bound_cert(1000)


def test_sector_cert_passes_and_sees_the_true_maximum():
    cert = sector_bound_cert(10000)
    assert cert.n_samples == 10000
    assert cert.max_observed <= cert.c_upper == 1.59
    assert 1.10 <= cert.max_observed <= 1.25
    # the maximum sits on the arg z = -pi/2 ray of the sample's grid
    assert abs(big_f([cert.z_max])[0]) == pytest.approx(cert.max_observed, rel=1e-15)
    assert cert.z_max.real == pytest.approx(0.0, abs=1e-14) and cert.z_max.imag < 0.0


def test_sector_bound_holds_as_proved_from_tiny_to_huge_radii():
    # SectorBoundCert's proof: |F| <= 1/2 where Im(e^{i pi/4} z) >= 0, that is
    # arg z in [-pi/4, 3 pi/4], and |F| <= 1 + 1/2 on the rest of the sector
    radii = np.geomspace(1e-6, 1e6, 25)
    half_plane = np.linspace(-0.25 * math.pi, 0.75 * math.pi, 17)
    rest = np.concatenate(
        (
            np.linspace(-0.5 * math.pi, -0.25 * math.pi, 8, endpoint=False),
            np.linspace(math.pi, 0.75 * math.pi, 8, endpoint=False),
        )
    )
    for thetas, bound in ((half_plane, 0.5), (rest, 1.5)):
        z = radii * np.exp(1j * thetas)[:, None]
        assert np.abs(big_f(z)).max() <= bound
    assert 1.5 < sector_bound_cert(1000).c_upper


def test_sector_cert_dataclass_enforces_invariant():
    from shadowhp.specfun import SectorBoundCert

    with pytest.raises(
        CertificationError, match=re.escape("|F((0.5-2j))| = 1.6 exceeds the sector bound 1.59")
    ):
        SectorBoundCert(n_samples=1000, max_observed=1.60, z_max=0.5 - 2j)
    assert SectorBoundCert(1000, 1.59, 0.5 - 2j).z_max == 0.5 - 2j
    # a NaN maximum certifies nothing
    with pytest.raises(CertificationError, match=r"\|F\(0j\)\| = nan exceeds"):
        SectorBoundCert(10, math.nan, 0j)


def test_sector_cert_record_cannot_state_another_bound():
    import dataclasses

    from shadowhp.specfun import SectorBoundCert

    assert [f.name for f in dataclasses.fields(SectorBoundCert)] == [
        "n_samples",
        "max_observed",
        "z_max",
    ]
    assert SectorBoundCert(1000, 1.0, 0j).c_upper == SectorBoundCert.c_upper == 1.59
    with pytest.raises(TypeError):
        SectorBoundCert(1000, 1.0, 0j, c_upper=2.0)
    with pytest.raises(TypeError):
        SectorBoundCert(2.0, 1000, 1.0, 0j)


def _plane_points(n: int, seed: int) -> np.ndarray:
    # bounded and growth sectors alike, inside the range where nothing overflows
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 6.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


def test_batch_and_one_point_calls_agree():
    pts = _plane_points(3000, 24)
    for fn in (big_f, fresnel_fr):
        batch = fn(pts)
        assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
        one = [fn(pts[i : i + 1]) for i in range(pts.size)]
        assert all(v.shape == (1,) for v in one)
        np.testing.assert_allclose(batch, np.concatenate(one), rtol=1e-13, atol=0.0)
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


def _per_draw_sample(n: int) -> np.ndarray:
    # the cert's n bounded-sector points, one uniform call per value
    points = []
    for th in np.linspace(-0.5 * math.pi, math.pi, 25):
        for rad in np.geomspace(0.05, 40.0, 40):
            points.append(rad * cmath.exp(1j * th))
    rng = np.random.default_rng(0)
    while len(points) < n:
        th = rng.uniform(-0.5 * math.pi, math.pi)
        rad = rng.uniform(1e-3, 40.0)
        points.append(rad * cmath.exp(1j * th))
    return np.array(points)


def test_cert_sample_matches_the_per_draw_loop():
    from shadowhp.specfun import _cert_sample

    bounded = _per_draw_sample(10000)
    # only the points where w's argument e^{i pi/4} z lies below the real axis
    points = list(bounded[(_EIPI4 * bounded).imag < 0.0])
    n_bounded = len(points)
    # then the growth grid: 21 angles open at both ends, 20 radii each
    envelopes = []
    for th in np.linspace(-math.pi + 0.02, -0.5 * math.pi - 0.02, 21):
        growth = math.sin(2.0 * th)
        r_cap = min(40.0, math.sqrt(693.0 / max(growth, 1e-6)))
        for rad in np.geomspace(0.05, r_cap, 20):
            points.append(rad * cmath.exp(1j * th))
            envelopes.append(math.exp(rad * rad * growth))
    got, got_n_bounded, envelope = _cert_sample(10000)
    np.testing.assert_array_equal(got, np.array(points))
    assert got_n_bounded == n_bounded == 3369
    np.testing.assert_allclose(envelope, envelopes, rtol=1e-12, atol=0.0)
    assert envelope.max() <= math.exp(693.0) * (1 + 1e-12)
    assert _cert_sample(1000)[0].size == 339 + 21 * 20


def test_cert_sample_is_shared_and_read_only():
    from shadowhp.specfun import _cert_sample

    sample = _cert_sample(2000)
    assert _cert_sample(2000) is sample
    points, n_bounded, envelope = sample
    assert points.shape == (n_bounded + 420,) and envelope.shape == (420,)
    assert 0 < n_bounded < 2000
    for arr in (points, envelope):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = _cert_sample.__wrapped__(2000)
    np.testing.assert_array_equal(points, fresh[0])
    assert n_bounded == fresh[1]
    np.testing.assert_array_equal(envelope, fresh[2])


def test_sector_cert_evaluates_f_once(monkeypatch):
    import shadowhp.specfun as specfun

    want = sector_bound_cert(1000)
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return big_f(z)

    monkeypatch.setattr(specfun, "big_f", counted)
    assert specfun.sector_bound_cert(1000) == want
    assert calls == [(339 + 420,)]


def test_sector_cert_is_the_record_of_the_full_sample():
    from shadowhp.runio import MAX_SAMPLES
    from shadowhp.specfun import SectorBoundCert

    # the full sample at the cap from one uniform call per coordinate, which
    # gives the per-draw values (checked on its first 30000 points: a per-draw
    # loop over all of it would take seconds)
    per_draw = _per_draw_sample(30000)
    rng = np.random.default_rng(0)
    th, rad = rng.uniform((-0.5 * math.pi, 1e-3), (math.pi, 40.0), (MAX_SAMPLES - 1000, 2)).T
    full = np.concatenate((per_draw[:1000], rad * np.exp(1j * th)))
    np.testing.assert_array_equal(full[:30000], per_draw)
    mags = np.abs(big_f(full))
    for n in (1000, 10000, 30000, MAX_SAMPLES):
        i_max = int(np.argmax(mags[:n]))
        want = SectorBoundCert(n, float(mags[i_max]), complex(full[i_max]))
        # a nonzero float equals another only bit for bit
        assert sector_bound_cert(n) == want
    # the points the cert skips at 10000 samples stay within the proved 1/2
    sample = full[:10000]
    skipped = sample[(_EIPI4 * sample).imag >= 0.0]
    assert skipped.size == 10000 - 3369
    assert np.abs(big_f(skipped)).max() <= 0.5


def test_sector_cert_refuses_a_maximum_a_skipped_point_might_hold(monkeypatch):
    import shadowhp.specfun as specfun
    from shadowhp.specfun import _cert_sample

    # |F| scaled by 0.4 on the evaluated bounded points tops out near 0.47,
    # below the 1/2 the skipped points may reach; the growth points keep F
    points, n_bounded, _ = _cert_sample(1000)

    def shrunk(z):
        f = big_f(z)
        f[:n_bounded] *= 0.4
        return f

    mags = np.abs(shrunk(points)[:n_bounded])
    i_max = int(np.argmax(mags))
    monkeypatch.setattr(specfun, "big_f", shrunk)
    with pytest.raises(
        CertificationError,
        match=re.escape(f"|F({complex(points[i_max])!r})| = {float(mags[i_max])}, does not exceed"),
    ):
        sector_bound_cert(1000)


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
        big_f([above])
    with pytest.raises(OverflowError, match=re.escape(repr(zeta))):
        big_f(np.array([0.5, above, 2.0 * above]))
    below = math.sqrt(708.0) * (1.0 - 1e-12) * ray
    (value,) = big_f([below])
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value) == pytest.approx(math.exp(708.0), rel=1e-6)

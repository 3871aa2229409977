"""Continuation of r and mu, branch-cut policing, region predicates."""

import cmath
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from shadowhp.errors import BranchCutError, DomainError
from shadowhp.geometry import (
    CUT_RTOL,
    THETA_STAR,
    KnifeGeometry,
    RegionLabel,
    cut_distance,
    mu_of_s,
    r_of_s,
    region_label,
    strip_S_delta,
)


def random_off_cut_points(geo, n, seed, box=6.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        s = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if cut_distance(s, geo) > 1e-6 * geo.R:
            pts.append(s)
    return pts


def test_geometry_validation():
    with pytest.raises(DomainError):
        KnifeGeometry(R=0.0, beta=1.0)
    with pytest.raises(DomainError):
        KnifeGeometry(R=1.0, beta=math.pi)


def test_r_at_zero_is_R():
    geo = KnifeGeometry(R=2.3, beta=1.1)
    assert abs(r_of_s(0.0, geo) - 2.3) <= 1e-15


def test_r_perpendicular_line():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    assert abs(r_of_s(1.0, geo) - math.sqrt(2.0)) <= 1e-15


def test_r_positive_real_part_off_cuts():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    for s in random_off_cut_points(geo, 10000, seed=31):
        assert r_of_s(s, geo).real > 0.0, f"s={s}"


def test_r_branch_cut_raises():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    on_cut = complex(math.cos(geo.beta), math.sin(geo.beta) + 0.5)
    with pytest.raises(BranchCutError):
        r_of_s(on_cut, geo)


def test_r_vanishes_at_branch_point_radial_limit():
    # |r| ~ C sqrt(delta) along the radial approach; the sqrt-extrapolated
    # value at delta = 0 must vanish
    geo = KnifeGeometry(R=1.0, beta=1.9)
    bp = geo.R * cmath.exp(1j * geo.beta)
    vals = []
    deltas = (1e-10, 1e-12)
    for d in deltas:
        vals.append(abs(r_of_s(bp * (1.0 - d), geo)))
    w1, w2 = math.sqrt(deltas[0]), math.sqrt(deltas[1])
    extrapolated = (vals[1] * w1 - vals[0] * w2) / (w1 - w2)
    assert abs(extrapolated) <= 1e-10


def test_mu_at_zero():
    geo = KnifeGeometry(R=1.0, beta=1.0)
    assert mu_of_s(0.0, geo, 5.0) == 0.0


def test_mu_worked_value():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    mu = mu_of_s(1.0, geo, 2.0)
    expected = math.sqrt(2.0) / math.sqrt(1.0 + math.sqrt(2.0))
    assert abs(mu - expected) <= 1e-14
    assert abs(mu * mu - 2.0 * (-1.0 + math.sqrt(2.0))) <= 1e-14


def test_mu_squared_identity():
    geo = KnifeGeometry(R=1.4, beta=2.2)
    k = 7.0
    for s in random_off_cut_points(geo, 2000, seed=32):
        mu = mu_of_s(s, geo, k)
        rhs = k * (-geo.R + s * math.cos(geo.beta) + r_of_s(s, geo))
        assert abs(mu * mu - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_denominator_has_positive_real_part():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    for s in random_off_cut_points(geo, 10000, seed=33):
        val = geo.R - s * math.cos(geo.beta) + r_of_s(s, geo)
        assert val.real > 0.0, f"s={s}"


def test_mu_real_line_reduction():
    # for real s > 0: mu = sqrt(2 k r) cos(psi/2), psi the polar angle of
    # (-R, 0) + s (cos beta, sin beta)
    geo = KnifeGeometry(R=1.0, beta=1.9)
    k = 3.0
    for s in (0.1, 0.7, 1.3, 4.2):
        x1 = -geo.R + s * math.cos(geo.beta)
        x2 = s * math.sin(geo.beta)
        r = math.hypot(x1, x2)
        psi = math.atan2(x2, x1)
        mu = mu_of_s(s, geo, k)
        assert abs(mu.imag) <= 1e-14
        assert mu.real >= 0.0
        assert abs(mu.real - math.sqrt(2.0 * k * r) * math.cos(0.5 * psi)) <= 1e-12


def test_theta_star_value():
    assert abs(THETA_STAR - 1.279079822283294) <= 1e-15
    assert abs(math.tan(THETA_STAR) ** 2 - (11.0 + 5.0 * math.sqrt(5.0)) / 2.0) <= 1e-12


def test_region_right_half_plane_point():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    assert region_label(1.0 + 0j, geo).in_R


def test_region_ellipse_empty_at_perpendicular():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    rng = np.random.default_rng(34)
    for _ in range(2000):
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert not region_label(s, geo).in_ellipse


def test_region_boundary_points_are_outside():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    # on the strip boundary |Im s| = R sin beta
    lab = region_label(complex(0.2, math.sin(geo.beta)), geo)
    assert not lab.in_S
    # on the ellipse boundary (rightmost point)
    cb = math.cos(geo.beta)
    lab = region_label(complex(2.0 * cb, 0.0), geo)
    assert not lab.in_ellipse
    # origin is excluded from the sector strip
    assert not region_label(0j, geo).in_S


def test_region_in_R_implies_in_cut_plane():
    rng = np.random.default_rng(35)
    for _ in range(20):
        geo = KnifeGeometry(R=rng.uniform(0.3, 3.0), beta=rng.uniform(0.1, math.pi - 0.1))
        for _ in range(500):
            s = complex(rng.uniform(-4, 4) * geo.R, rng.uniform(-4, 4) * geo.R)
            lab = region_label(s, geo)
            assert lab.in_R <= lab.in_cut_plane


def test_strip_subset_of_region_below_perpendicular():
    rng = np.random.default_rng(36)
    for _ in range(20):
        geo = KnifeGeometry(R=rng.uniform(0.3, 3.0), beta=rng.uniform(0.1, 0.5 * math.pi - 0.01))
        for _ in range(5000):
            s = complex(rng.uniform(-4, 4) * geo.R, rng.uniform(-4, 4) * geo.R)
            lab = region_label(s, geo)
            if lab.in_S:
                assert lab.in_R, f"geo={geo}, s={s}"


def _seed_flags(s: complex, geo: KnifeGeometry) -> tuple[bool, bool, bool, bool]:
    # region_label as first written: every constant recomputed per point
    R, beta = geo.R, geo.beta
    cb = math.cos(beta)
    dx = abs(s.real - geo.R * math.cos(geo.beta))
    dy = geo.R * math.sin(geo.beta) - abs(s.imag)
    in_cut_plane = (dx if dy <= 0.0 else math.hypot(dx, dy)) > CUT_RTOL * R
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
    return in_cut_plane, in_region, in_ellipse, in_S


_HALF_PI = 0.5 * math.pi
_BETAS = st.one_of(
    st.floats(0.05, _HALF_PI, exclude_max=True),
    st.floats(_HALF_PI, math.pi - 0.05, exclude_min=True),
    st.sampled_from(
        [_HALF_PI, math.nextafter(_HALF_PI, 0.0), math.nextafter(_HALF_PI, 4.0)]
    ),
)


@st.composite
def _geometry_and_point(draw):
    geo = KnifeGeometry(R=draw(st.floats(0.1, 10.0)), beta=draw(_BETAS))
    R, cb, sb = geo.R, math.cos(geo.beta), math.sin(geo.beta)
    t = draw(st.floats(-math.pi, math.pi))
    u = draw(st.floats(-3.0, 3.0)) * R
    boundary = [
        0j,
        # the ends of the two cuts, and points on them
        complex(R * cb, R * sb),
        complex(R * cb, -R * sb),
        complex(R * cb, u),
        # the ellipse |Im s|^2 cos^2 + (Re s - R cos)^2 = R^2 cos^2
        complex(R * cb + R * cb * math.cos(t), R * math.sin(t)),
        # both axes and the strip edges
        complex(u, 0.0),
        complex(0.0, u),
        complex(u, R * sb),
        complex(u, -R * sb),
    ]
    random = complex(draw(st.floats(-4.0, 4.0)) * R, draw(st.floats(-4.0, 4.0)) * R)
    return geo, draw(st.sampled_from([random, *boundary]))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=_geometry_and_point())
def _check_region_label_matches_seed(case):
    geo, s = case
    lab = region_label(s, geo)
    assert type(lab) is RegionLabel
    got = (lab.in_cut_plane, lab.in_R, lab.in_ellipse, lab.in_S)
    assert all(type(flag) is bool for flag in got)
    assert got == _seed_flags(s, geo), f"s={s!r}, {geo}"


def test_region_label_matches_the_seed_formula():
    # hypothesis caches the constants of local modules under its home directory,
    # ./.hypothesis unless told otherwise; keep that cache out of the working tree
    with tempfile.TemporaryDirectory() as home:
        configuration.set_hypothesis_home_dir(home)
        try:
            _check_region_label_matches_seed()
        finally:
            configuration.set_hypothesis_home_dir(None)


def test_region_label_on_exact_boundary_points():
    for beta in (1.0, 0.5 * math.pi, 2.0):
        geo = KnifeGeometry(R=1.5, beta=beta)
        r_cb, r_sb = geo.R * math.cos(beta), geo.R * math.sin(beta)
        for s in (0j, complex(r_cb, r_sb), complex(r_cb, -r_sb), complex(2.0 * r_cb, 0.0)):
            lab = region_label(s, geo)
            assert (lab.in_cut_plane, lab.in_R, lab.in_ellipse, lab.in_S) == _seed_flags(s, geo)
        # the cut ends lie on the cuts, and 0 is outside the strip-sector
        assert not region_label(complex(r_cb, r_sb), geo).in_cut_plane
        assert not region_label(0j, geo).in_S


def test_region_label_returns_shared_labels():
    geo = KnifeGeometry(R=1.0, beta=2.0)
    labels = {id(region_label(s, geo)) for s in random_off_cut_points(geo, 500, seed=38)}
    assert len(labels) <= 16
    assert region_label(0.5 + 0.1j, geo) is region_label(0.5 + 0.1j, geo)


def test_region_label_rejects_non_finite_points():
    geo = KnifeGeometry(R=1.0, beta=2.0)
    for s in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
        with pytest.raises(DomainError, match="finite components"):
            region_label(s, geo)
        with pytest.raises(DomainError, match="finite components"):
            cut_distance(s, geo)
        with pytest.raises(DomainError, match="finite components"):
            strip_S_delta(s, geo, 0.5)


def test_strip_S_delta():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    assert strip_S_delta(0.5, geo, 0.5)
    assert not strip_S_delta(complex(0.2, math.sin(geo.beta)), geo, 0.5)
    # |Im| = 0.8 exceeds 0.9 sin(pi/3) ~ 0.779
    assert not strip_S_delta(1.0 + 0.8j, geo, 0.1)
    with pytest.raises(DomainError):
        strip_S_delta(0.5, geo, 1.5)


def test_r_and_mu_scalar_array_parity():
    geo = KnifeGeometry(R=1.4, beta=2.2)
    pts = np.array(random_off_cut_points(geo, 2000, seed=37))
    for fn in (lambda s: r_of_s(s, geo), lambda s: mu_of_s(s, geo, 7.0)):
        batch = fn(pts)
        assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
        scalar = [fn(complex(s)) for s in pts]
        assert all(type(v) is complex for v in scalar)
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0.0)
        grid = pts[:600].reshape(20, 30)
        np.testing.assert_array_equal(fn(grid), fn(grid.ravel()).reshape(20, 30))


def test_array_input_rejects_one_bad_point():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    on_cut = complex(math.cos(geo.beta), math.sin(geo.beta) + 0.5)
    pts = np.array([0.3 + 0.1j, on_cut, 0.2j])
    with pytest.raises(BranchCutError, match=re.escape(repr(on_cut))):
        r_of_s(pts, geo)
    with pytest.raises(BranchCutError):
        mu_of_s(pts, geo, 3.0)
    with pytest.raises(DomainError, match="nan"):
        r_of_s(np.array([0.3, complex(math.nan, 0.0)]), geo)
    with pytest.raises(DomainError):
        mu_of_s(np.array([0.3, math.inf]), geo, 3.0)


def test_r_overflow_raises_naming_the_point():
    geo = KnifeGeometry(R=1.0, beta=2.0)
    with pytest.raises(OverflowError, match=re.escape(repr(complex(1e300)))):
        r_of_s(np.array([0.5, 1e300]), geo)


def test_mu_subnormal_input_names_k_and_s():
    # k = 5e-324 on the geometry of l_nc_prime = 5e-324, alpha just above pi/2:
    # R^2 underflows and the root sqrt(R - s cos(beta) + r) rounds to 0
    geo = KnifeGeometry(R=1.7441082120055883e-308, beta=2.220446049250313e-16)
    assert mu_of_s(0.0, geo, 5e-324) == 0.0
    with pytest.raises(DomainError, match=r"s = \(0\.5\+0j\) for k = 5e-324"):
        mu_of_s(np.array([0.0, 0.5, 1.0]), geo, 5e-324)


def test_real_points_on_a_cut_still_raise():
    # R sin(beta) <= CUT_RTOL R: the cuts reach the real line, so real input
    # cannot skip the cut check
    geo = KnifeGeometry(R=1.0, beta=1e-16)
    assert geo.R * math.sin(geo.beta) <= CUT_RTOL * geo.R
    on_cut = geo.R * math.cos(geo.beta)
    for pts in (np.array([0.5, on_cut]), np.array([0.5, on_cut], dtype=complex)):
        with pytest.raises(BranchCutError, match=re.escape(f"s = {complex(on_cut)!r} lies")):
            r_of_s(pts, geo)
        with pytest.raises(BranchCutError, match=re.escape(f"s = {complex(on_cut)!r} lies")):
            mu_of_s(pts, geo, 3.0)

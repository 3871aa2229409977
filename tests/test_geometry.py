"""Continuation of r and mu, branch-cut policing, region predicates."""

import cmath
import math
import pickle
import re
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from shadowhp.amplitudes import ShadowConfig, amplitude_v, g_of_s, h_of_s
from shadowhp.errors import BranchCutError, DomainError
from shadowhp.geometry import mu_of_s, r_of_s
from shadowhp.kernel import faddeeva_w
from shadowhp.regions import (
    CUT_RTOL,
    THETA_STAR,
    KnifeGeometry,
    RegionLabel,
    cut_distance,
    region_label,
    strip_S_delta,
)
from shadowhp.specfun import big_f, fresnel_fr


def random_off_cut_points(geo, n, seed, box=6.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        s = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if cut_distance(s, geo) > 1e-6 * geo.R:
            pts.append(s)
    return pts


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KnifeGeometry(0.0, 1.0), "R must be a positive finite length, got 0.0"),
        (lambda: KnifeGeometry(R=-1.0, beta=1.0), "R must be a positive finite length, got -1.0"),
        (lambda: KnifeGeometry(math.inf, 1.0), "R must be a positive finite length, got inf"),
        (lambda: KnifeGeometry(R=math.nan, beta=1), "R must be a positive finite length, got nan"),
        (lambda: KnifeGeometry(1.0, math.pi), f"beta must lie in (0, pi), got {math.pi}"),
        (lambda: KnifeGeometry(R=1.0, beta=0.0), "beta must lie in (0, pi), got 0.0"),
        (lambda: KnifeGeometry(R=1.0, beta=math.nan), "beta must lie in (0, pi), got nan"),
        (lambda: _GEO._replace(R=-1.0), "R must be a positive finite length, got -1.0"),
        (lambda: _GEO._replace(beta=4.0), "beta must lie in (0, pi), got 4.0"),
        (lambda: KnifeGeometry._make([-1.0, 2.0]), "R must be a positive finite length, got -1.0"),
        (lambda: KnifeGeometry._make((1.0, -2.0)), "beta must lie in (0, pi), got -2.0"),
    ],
    ids=[
        "R-zero", "R-negative-keyword", "R-inf", "R-nan-keyword",
        "beta-pi", "beta-zero-keyword", "beta-nan-keyword",
        "replace-R", "replace-beta", "make-R", "make-beta",
    ],
)
def test_geometry_validation(build, message):
    # no way of building a geometry skips the checks
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_geometry_is_an_immutable_value():
    geo = KnifeGeometry(R=1.0, beta=2.0)
    for field in ("R", "beta"):
        with pytest.raises(AttributeError):
            setattr(geo, field, 3.0)
    assert (geo.R, geo.beta) == (1.0, 2.0)
    assert geo == _GEO and hash(geo) == hash(_GEO)
    assert geo != KnifeGeometry(1.0, 2.5)
    # a named tuple: equal to the plain tuple of its fields
    assert geo == (1.0, 2.0)
    assert geo._replace(beta=2.5) == KnifeGeometry(1.0, 2.5)
    assert type(KnifeGeometry._make([1.0, 2.0])) is KnifeGeometry
    # as the branch-cut and overflow messages of geometry print it
    assert repr(geo) == str(geo) == "KnifeGeometry(R=1.0, beta=2.0)"
    # the cached constants travel with a pickle and still match
    constants = geo._region_constants
    copy = pickle.loads(pickle.dumps(geo))
    assert type(copy) is KnifeGeometry and copy == geo
    assert copy._region_constants == constants == KnifeGeometry(1.0, 2.0)._region_constants


@pytest.mark.parametrize(
    "R, beta, constants",
    [
        (1.0, 2.0, ("-0x1.aa22657537205p-2", "-0x1.aa22657537205p-2", "0x1.d18f6ead1b446p-1",
                    "0x1.6849b86a12b9bp-47", "0x1.62ab3f249b67fp-3", False)),
        (2.3, 1.1, ("0x1.d07b806c76111p-2", "0x1.0b13d03e5d7d0p+0", "0x1.065f17233b2a6p+1",
                    "0x1.9e54c746c8bbep-46", "0x1.16a255eaa9aa0p+0", True)),
        (1.0, 0.5 * math.pi, ("0x1.1a62633145c07p-54", "0x1.1a62633145c07p-54", "0x1.0p+0",
                              "0x1.6849b86a12b9bp-47", "0x1.377ce858a5d48p-108", True)),
        (0.6395080848042881, 8.97898823953947e-12, (
            "0x1.0p+0", "0x1.476d9a8b86267p-1", "0x1.94111e55f942ep-38",
            "0x1.ccd06b73b8d8dp-48", "0x1.a2c92fbd68d2ap-2", True)),
    ],
)
def test_region_constants_are_pinned(R, beta, constants):
    # cos(beta), R cos(beta), R sin(beta), the cut tolerance, R^2 cos(beta)^2
    # and beta <= pi/2, bit for bit as the region pins were made with
    want = tuple(c if isinstance(c, bool) else float.fromhex(c) for c in constants)
    assert KnifeGeometry(R, beta)._region_constants == want


def test_r_at_zero_is_R():
    geo = KnifeGeometry(R=2.3, beta=1.1)
    assert abs(r_of_s([0.0], geo)[0] - 2.3) <= 1e-15


def test_r_perpendicular_line():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    assert abs(r_of_s([1.0], geo)[0] - math.sqrt(2.0)) <= 1e-15


def test_r_positive_real_part_off_cuts():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    for s in random_off_cut_points(geo, 10000, seed=31):
        assert r_of_s([s], geo)[0].real > 0.0, f"s={s}"


def test_r_branch_cut_raises():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    on_cut = complex(math.cos(geo.beta), math.sin(geo.beta) + 0.5)
    with pytest.raises(BranchCutError):
        r_of_s([on_cut], geo)


def test_r_vanishes_at_branch_point_radial_limit():
    # |r| ~ C sqrt(delta) along the radial approach; the sqrt-extrapolated
    # value at delta = 0 must vanish
    geo = KnifeGeometry(R=1.0, beta=1.9)
    bp = geo.R * cmath.exp(1j * geo.beta)
    vals = []
    deltas = (1e-10, 1e-12)
    for d in deltas:
        vals.append(abs(r_of_s([bp * (1.0 - d)], geo)[0]))
    w1, w2 = math.sqrt(deltas[0]), math.sqrt(deltas[1])
    extrapolated = (vals[1] * w1 - vals[0] * w2) / (w1 - w2)
    assert abs(extrapolated) <= 1e-10


def test_mu_at_zero():
    geo = KnifeGeometry(R=1.0, beta=1.0)
    assert mu_of_s([0.0], geo, 5.0)[0] == 0.0


def test_mu_worked_value():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    mu = mu_of_s([1.0], geo, 2.0)[0]
    expected = math.sqrt(2.0) / math.sqrt(1.0 + math.sqrt(2.0))
    assert abs(mu - expected) <= 1e-14
    assert abs(mu * mu - 2.0 * (-1.0 + math.sqrt(2.0))) <= 1e-14


def test_mu_squared_identity():
    geo = KnifeGeometry(R=1.4, beta=2.2)
    k = 7.0
    for s in random_off_cut_points(geo, 2000, seed=32):
        mu = mu_of_s([s], geo, k)[0]
        rhs = k * (-geo.R + s * math.cos(geo.beta) + r_of_s([s], geo)[0])
        assert abs(mu * mu - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_denominator_has_positive_real_part():
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    for s in random_off_cut_points(geo, 10000, seed=33):
        val = geo.R - s * math.cos(geo.beta) + r_of_s([s], geo)[0]
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
        mu = mu_of_s([s], geo, k)[0]
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
    # 0.5, 1 or 2 cut tolerances (or any distance between) from either cut
    # end, in any direction
    d = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.5, 2.0))) * CUT_RTOL * R
    near_ends = [
        complex(R * cb + d * math.cos(t), R * sb + d * math.sin(t)),
        complex(R * cb + d * math.cos(t), -R * sb + d * math.sin(t)),
        # level with a cut end, and beside the cut line above and below it
        complex(R * cb + d, R * sb),
        complex(R * cb - d, -R * sb),
        complex(R * cb + math.copysign(d, t), u),
    ]
    signed_zeros = [
        complex(-0.0, 0.0),
        complex(0.0, -0.0),
        complex(-0.0, -0.0),
        complex(-0.0, u),
        complex(u, -0.0),
    ]
    random = complex(draw(st.floats(-4.0, 4.0)) * R, draw(st.floats(-4.0, 4.0)) * R)
    return geo, draw(st.sampled_from([random, *boundary, *near_ends, *signed_zeros]))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=_geometry_and_point())
def _check_region_label_matches_seed(case):
    geo, s = case
    lab = region_label(s, geo)
    assert type(lab) is RegionLabel
    got = (lab.in_cut_plane, lab.in_R, lab.in_ellipse, lab.in_S)
    assert all(type(flag) is bool for flag in got)
    assert got == _seed_flags(s, geo), f"s={s!r}, {geo}"


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=_geometry_and_point())
def _check_cut_test_is_cut_distance(case):
    geo, s = case
    assert region_label(s, geo).in_cut_plane == (cut_distance(s, geo) > CUT_RTOL * geo.R)


def test_region_label_is_a_frozen_value():
    lab = region_label(0.4 + 0.2j, KnifeGeometry(R=1.0, beta=2.0))
    copy = RegionLabel(*lab)
    assert copy == lab and hash(copy) == hash(lab)
    assert repr(RegionLabel(True, False, True, False)) == (
        "RegionLabel(in_cut_plane=True, in_R=False, in_ellipse=True, in_S=False)"
    )
    with pytest.raises(AttributeError):
        lab.in_S = not lab.in_S


def test_region_label_matches_the_seed_formula():
    # hypothesis caches the constants of local modules under its home directory,
    # ./.hypothesis unless told otherwise; keep that cache out of the working tree
    with tempfile.TemporaryDirectory() as home:
        configuration.set_hypothesis_home_dir(home)
        try:
            _check_region_label_matches_seed()
        finally:
            configuration.set_hypothesis_home_dir(None)


def test_region_cut_test_is_cut_distance():
    # region_label tests the cuts inline; its test and cut_distance (which
    # r(s) refuses points by) must not drift apart, also at the cut ends
    with tempfile.TemporaryDirectory() as home:
        configuration.set_hypothesis_home_dir(home)
        try:
            _check_cut_test_is_cut_distance()
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


_GEO = KnifeGeometry(R=1.0, beta=2.0)
_CFG = ShadowConfig(k=9.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
#: every evaluation function, as a function of its array of points alone
_EVALUATIONS = {
    "r_of_s": lambda s: r_of_s(s, _GEO),
    "mu_of_s": lambda s: mu_of_s(s, _GEO, 9.0),
    "h_of_s": lambda s: h_of_s(s, _GEO, 9.0),
    "g_of_s": lambda s: g_of_s(s, _GEO, 9.0),
    "big_f": big_f,
    "fresnel_fr": fresnel_fr,
    "faddeeva_w": faddeeva_w,
    "amplitude_v": lambda s: amplitude_v(s, _CFG),
}
#: every function that evaluates at points, as a function of the point (an
#: array of one point for the evaluation functions) alone
_AT_POINTS = {
    **_EVALUATIONS,
    "region_label": lambda s: region_label(s, _GEO),
    "cut_distance": lambda s: cut_distance(s, _GEO),
    "strip_S_delta": lambda s: strip_S_delta(s, _GEO, 0.5),
}
_NON_FINITE = (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0))


@pytest.mark.parametrize(
    ("name", "s"),
    [(name, s) for name in _AT_POINTS if name != "amplitude_v" for s in _NON_FINITE]
    + [("amplitude_v", math.nan), ("amplitude_v", math.inf)],
)
def test_every_evaluation_refuses_a_non_finite_point_by_one_rule(name, s):
    # arc lengths of V are real; the other functions take complex points
    message = f"argument must have finite components, got {complex(s)!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _AT_POINTS[name]([s] if name in _EVALUATIONS else s)


@pytest.mark.parametrize("name", [name for name in _EVALUATIONS if name != "big_f"])
@pytest.mark.parametrize(
    ("scalar", "shown"),
    [(1.5, "1.5"), (1.5 + 0j, "(1.5+0j)"), (np.float64(1.5), "1.5"), (np.array(1.5), "1.5")],
    ids=repr,
)
def test_every_evaluation_refuses_a_scalar(name, scalar, shown):
    message = (
        f"points must be an array of at least one dimension, "
        f"got the scalar {shown}: pass [{shown}]"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _EVALUATIONS[name](scalar)


@pytest.mark.parametrize("scalar", [1.5, 1.5 + 0j, np.float64(1.5), np.array(1.5)], ids=repr)
def test_big_f_alone_still_takes_a_scalar(scalar):
    # the benchmark's mpmath check calls F one Python complex at a time
    value = big_f(scalar)
    assert type(value) is complex
    assert value == big_f(np.array([scalar]))[0]


def test_strip_S_delta():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    assert strip_S_delta(0.5, geo, 0.5)
    assert not strip_S_delta(complex(0.2, math.sin(geo.beta)), geo, 0.5)
    # |Im| = 0.8 exceeds 0.9 sin(pi/3) ~ 0.779
    assert not strip_S_delta(1.0 + 0.8j, geo, 0.1)
    # the sector's vertex has no argument and lies outside
    assert not strip_S_delta(0j, geo, 0.5)
    with pytest.raises(DomainError):
        strip_S_delta(0.5, geo, 1.5)


def test_r_and_mu_batch_and_one_point_calls_agree():
    geo = KnifeGeometry(R=1.4, beta=2.2)
    pts = np.array(random_off_cut_points(geo, 2000, seed=37))
    for fn in (lambda s: r_of_s(s, geo), lambda s: mu_of_s(s, geo, 7.0)):
        batch = fn(pts)
        assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
        one = [fn(pts[i : i + 1]) for i in range(pts.size)]
        assert all(v.shape == (1,) for v in one)
        np.testing.assert_allclose(batch, np.concatenate(one), rtol=1e-13, atol=0.0)
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


def test_cut_check_of_r_is_cut_distance():
    # r(s) refuses exactly the points that cut_distance puts within the
    # tolerance, naming the first in C order; the line Re s = R cos(beta)
    # between the branch points holds no cut
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    x0, y0, tol = geo.R * math.cos(geo.beta), geo.R * math.sin(geo.beta), CUT_RTOL * geo.R
    off = np.array([complex(x0, 0.5 * y0), complex(x0, -0.999 * y0), complex(x0 + 2 * tol, 2 * y0)])
    assert all(cut_distance(s, geo) > tol for s in off)
    assert r_of_s(off, geo).shape == (3,)
    below, above = complex(x0 + 0.5 * tol, -2 * y0), complex(x0, 1.5 * y0)
    assert cut_distance(below, geo) <= tol and cut_distance(above, geo) <= tol
    pts = np.array([[0.3 + 0.1j, off[0]], [below, above]])
    with pytest.raises(BranchCutError, match=re.escape(f"s = {below!r} lies")):
        r_of_s(pts, geo)


def test_r_overflow_raises_naming_the_point():
    geo = KnifeGeometry(R=1.0, beta=2.0)
    with pytest.raises(OverflowError, match=re.escape(repr(complex(1e300)))):
        r_of_s(np.array([0.5, 1e300]), geo)


def test_mu_subnormal_input_names_k_and_s():
    # k = 5e-324 on the geometry of l_nc_prime = 5e-324, alpha just above pi/2:
    # R^2 underflows and the root sqrt(R - s cos(beta) + r) rounds to 0
    geo = KnifeGeometry(R=1.7441082120055883e-308, beta=2.220446049250313e-16)
    assert mu_of_s([0.0], geo, 5e-324)[0] == 0.0
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

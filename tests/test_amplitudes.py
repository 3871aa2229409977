"""Field decompositions, amplitude functions, shadow-boundary amplitude."""

import cmath
import math

import numpy as np
import pytest

from shadowhp.amplitudes import (
    FieldPoint,
    ShadowConfig,
    amplitude_v,
    de_dn_check,
    e_field,
    e_go,
    e_remainder_check,
    epsilon_star,
    g_of_s,
    gtd_far_field,
    h_of_s,
    psi_go,
)
from shadowhp.errors import DomainError
from shadowhp.geometry import KnifeGeometry, r_of_s, strip_S_delta

E3IPI4 = cmath.exp(0.75j * math.pi)
SQRTPI = math.sqrt(math.pi)


def test_e_field_on_shadow_boundary():
    for r, k in ((0.7, 2.0), (3.1, 11.0)):
        val = e_field(FieldPoint(r, math.pi), k)
        assert abs(val - 0.5 * cmath.exp(1j * k * r)) <= 1e-14


def test_e_field_even_in_psi():
    val_p = e_field(FieldPoint(1.3, 0.7), 5.0)
    val_m = e_field(FieldPoint(1.3, -0.7), 5.0)
    assert abs(val_p - val_m) <= 1e-14


def test_e_field_sheet_relation():
    r, psi, k = 1.3, 0.7, 5.0
    lhs = e_field(FieldPoint(r, psi + 2.0 * math.pi), k) + e_field(FieldPoint(r, psi), k)
    assert abs(lhs - cmath.exp(-1j * k * r * math.cos(psi))) <= 1e-13


def test_e_go_cases():
    assert abs(e_go(FieldPoint(1.0, 0.5 * math.pi), 3.0) - 1.0) <= 1e-15
    assert e_go(FieldPoint(1.0, 1.5 * math.pi), 3.0) == 0j
    assert abs(e_go(FieldPoint(2.0, math.pi), 3.0) - 0.5 * cmath.exp(6j)) <= 1e-14
    with pytest.raises(DomainError):
        e_go(FieldPoint(1.0, 2.5 * math.pi), 3.0)


def test_e_remainder_examples():
    assert e_remainder_check(FieldPoint(2.0, 2.0), 10.0) <= 1e-12
    assert e_remainder_check(FieldPoint(0.5, 5.0), 3.0) <= 1e-12
    # exact shadow boundary: sign(0) = 0 and H(0) = 1/2 make both sides equal
    assert e_remainder_check(FieldPoint(1.7, math.pi), 8.0) <= 1e-14


def test_gtd_coefficient_at_zero():
    val = gtd_far_field(FieldPoint(1.0, 0.0), 1.0, include_plane_wave=False)
    d0 = -cmath.exp(0.25j * math.pi) / (2.0 * math.sqrt(2.0 * math.pi))
    assert abs(val - d0 * cmath.exp(1j)) <= 1e-15


def test_gtd_critical_angle_raises():
    with pytest.raises(DomainError):
        gtd_far_field(FieldPoint(1.0, math.pi - 1e-9), 1.0)


def test_gtd_far_field_decay_rate():
    # |E - gtd| should fall off like (kr)^{-3/2} at psi = pi/2
    radii = np.geomspace(50.0, 800.0, 12)
    errs = []
    for r in radii:
        p = FieldPoint(float(r), 0.5 * math.pi)
        errs.append(abs(e_field(p, 1.0) - gtd_far_field(p, 1.0)))
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert abs(slope + 1.5) <= 0.2


def test_h_at_zero_limit():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    expected = -math.cos(geo.beta) * math.sqrt(5.0 / 2.0)
    assert abs(h_of_s(0.0, geo, 5.0) - expected) <= 1e-14
    # and by one-sided numerical limit with Richardson extrapolation
    f1 = h_of_s(1e-7, geo, 5.0)
    f2 = h_of_s(2e-7, geo, 5.0)
    assert abs(2.0 * f1 - f2 - expected) <= 1e-9


def test_h_at_zero_perpendicular():
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    assert abs(h_of_s(0.0, geo, 5.0)) <= 1e-15


def test_h_matches_displayed_formula_off_origin():
    from shadowhp.geometry import mu_of_s

    geo = KnifeGeometry(R=1.3, beta=2.1)
    k = 7.0
    rng = np.random.default_rng(41)
    for _ in range(500):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(s) < 1e-3:
            continue
        mu = mu_of_s(s, geo, k)
        if abs(mu) < 1e-6:
            continue
        r = r_of_s(s, geo)
        displayed = k * math.sin(geo.beta) * (r - geo.R) / (2.0 * r * mu)
        assert abs(h_of_s(s, geo, k) - displayed) <= 1e-10 * max(abs(displayed), 1.0)


def test_h_strip_bound_regression():
    # |h| <= C k / sqrt(k R sin beta) on |Im s| <= (1 - delta) R sin beta,
    # delta = 0.5; frozen constant C = 0.45
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    k = 10.0
    cap = 0.5 * geo.R * math.sin(geo.beta)
    scale = k / math.sqrt(k * geo.R * math.sin(geo.beta))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5000):
        s = complex(rng.uniform(-10, 10), rng.uniform(-cap, cap))
        worst = max(worst, abs(h_of_s(s, geo, k)) / scale)
    assert worst <= 0.45


def test_g_at_zero():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    k = 5.0
    expected = E3IPI4 / SQRTPI * (-math.cos(geo.beta)) * math.sqrt(k / 2.0) - 0.5j * k * math.sin(
        geo.beta
    )
    assert abs(g_of_s(0.0, geo, k) - expected) <= 1e-13


def test_g_mirror_symmetry():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    mirror = KnifeGeometry(R=1.0, beta=math.pi - math.pi / 3)
    lhs = g_of_s(-0.3, geo, 5.0)
    rhs = g_of_s(0.3, mirror, 5.0)
    assert abs(lhs - rhs) <= 1e-13


def test_g_strip_sector_bound_regression():
    # |g| <= C k (1 + 1/sqrt(k R sin beta)) on the delta = 0.25 strip sector;
    # frozen constant C = 0.65
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    k = 10.0
    scale = k * (1.0 + 1.0 / math.sqrt(k * geo.R * math.sin(geo.beta)))
    rng = np.random.default_rng(43)
    worst = 0.0
    n = 0
    while n < 5000:
        s = complex(rng.uniform(-3, 6), rng.uniform(-0.75, 0.75))
        if not strip_S_delta(s, geo, 0.25):
            continue
        n += 1
        worst = max(worst, abs(g_of_s(s, geo, k)) / scale)
    assert worst <= 0.65


def test_e_go_normal_derivative_formula():
    # d(E_GO)/dn = -i k sin(beta) H(pi - psi) e^{-i k y1} at an illuminated point
    geo = KnifeGeometry(R=1.0, beta=2 * math.pi / 3)
    k, s, h = 5.0, 1.0, 1e-6
    sb, cb = math.sin(geo.beta), math.cos(geo.beta)
    x1, x2 = -geo.R + s * cb, s * sb

    def go_at(t):
        y1, y2 = x1 + t * sb, x2 - t * cb
        return e_go(FieldPoint(math.hypot(y1, y2), math.atan2(y2, y1)), k)

    fd = (go_at(h) - go_at(-h)) / (2.0 * h)
    assert abs(fd - (-1j * k * sb * cmath.exp(-1j * k * x1))) <= 1e-6


def test_de_dn_examples():
    assert de_dn_check(1.0, KnifeGeometry(R=1.0, beta=2 * math.pi / 3), 5.0) <= 1e-6
    assert de_dn_check(0.2, KnifeGeometry(R=1.0, beta=math.pi / 3), 20.0) <= 1e-6


def test_shadow_config_validation_and_derived():
    with pytest.raises(DomainError):
        ShadowConfig(k=16.0, alpha=0.5 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    with pytest.raises(DomainError):
        ShadowConfig(k=-1.0, alpha=2.0, l_nc=1.5, l_nc_prime=1.0)
    for name in ("k", "l_nc", "l_nc_prime"):
        for bad in (math.nan, math.inf):
            fields = {"k": 16.0, "alpha": 2.0, "l_nc": 1.5, "l_nc_prime": 1.0, name: bad}
            with pytest.raises(DomainError, match=rf"\b{name} must be finite"):
                ShadowConfig(**fields)
    # huge but finite k is a real wavenumber: V grows like sqrt(k), it does not break
    assert ShadowConfig(k=1e300, alpha=2.0, l_nc=1.5, l_nc_prime=1.0).k == 1e300
    cfg = ShadowConfig(k=16.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    assert abs(cfg.s_sb - 1.0) <= 1e-14
    assert abs(cfg.r_alpha - math.sqrt(2.0)) <= 1e-14
    assert abs(cfg.beta_plus - 0.75 * math.pi) <= 1e-14
    assert abs(cfg.beta_minus - 0.25 * math.pi) <= 1e-14


def test_amplitude_v_head_on_incidence():
    # alpha = pi: s_sb = 0, beta+- = pi/2, and V(s) = -2 g(s; l', pi/2) for s > 0
    cfg = ShadowConfig(k=9.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    geo = KnifeGeometry(R=1.0, beta=0.5 * math.pi)
    for s in (0.2, 0.9, 1.4):
        assert abs(amplitude_v(s, cfg) + 2.0 * g_of_s(s, geo, cfg.k)) <= 1e-13


def test_amplitude_v_rejects_negative_s():
    cfg = ShadowConfig(k=9.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    with pytest.raises(DomainError):
        amplitude_v(-0.1, cfg)


def total_trace(s, cfg):
    return psi_go(s, cfg) + amplitude_v(s, cfg) * cmath.exp(
        1j * cfg.k * math.hypot(s, cfg.l_nc_prime)
    )


def test_total_trace_continuity_raw():
    cfg = ShadowConfig(k=16.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    h = 1e-9 * (1.0 + cfg.s_sb)
    jump = abs(total_trace(cfg.s_sb + h, cfg) - total_trace(cfg.s_sb - h, cfg))
    assert jump <= 1e-6


def test_psi_go_head_on():
    cfg = ShadowConfig(k=7.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    expected = -1j * cfg.k * cmath.exp(1j * cfg.k * cfg.l_nc_prime)
    for s in (0.1, 0.8, 1.5):
        assert abs(psi_go(s, cfg) - expected) <= 1e-13


def test_psi_go_fully_shadowed_side():
    # alpha below pi - arctan(l_nc / l_nc_prime): the incident shadow point
    # lies beyond the side, so the GO trace vanishes on all of it
    cfg = ShadowConfig(k=7.0, alpha=1.8, l_nc=1.5, l_nc_prime=1.0)
    assert cfg.s_sb > cfg.l_nc
    for s in (0.0, 0.5, 1.5):
        assert psi_go(s, cfg) == 0j


def test_psi_go_partially_illuminated_side():
    cfg = ShadowConfig(k=7.0, alpha=2.3, l_nc=1.5, l_nc_prime=1.0)
    assert 0.0 < cfg.s_sb < cfg.l_nc
    assert psi_go(0.5 * cfg.s_sb, cfg) == 0j
    assert abs(psi_go(0.5 * (cfg.s_sb + cfg.l_nc), cfg)) > 0.0


def test_psi_go_pointwise_bound():
    rng = np.random.default_rng(44)
    for _ in range(200):
        cfg = ShadowConfig(
            k=rng.uniform(1.0, 100.0),
            alpha=rng.uniform(0.5 * math.pi + 0.05, 1.5 * math.pi - 0.05),
            l_nc=1.5,
            l_nc_prime=1.0,
        )
        s = rng.uniform(0.0, cfg.l_nc)
        assert abs(psi_go(s, cfg)) <= 2.0 * cfg.k + 1e-12


def test_v_scaling_with_k():
    # max |V| / k stays in a fixed window across a k sweep (linear growth)
    cfgs = [ShadowConfig(k=k, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0) for k in (10.0, 20.0, 40.0, 80.0, 160.0)]
    grid = np.linspace(0.0, 1.5, 400)
    ratios = []
    for cfg in cfgs:
        peak = max(abs(amplitude_v(float(s), cfg)) for s in grid)
        ratios.append(peak / cfg.k)
    assert all(0.30 <= r <= 0.45 for r in ratios), ratios
    assert max(ratios) / min(ratios) <= 1.15


def test_epsilon_star():
    geo = KnifeGeometry(R=2.0, beta=math.pi / 4)
    k = 9.0
    expected = 1.0 * min(1.0, 1.0 / (math.sin(geo.beta) * math.sqrt(k * geo.R)))
    assert abs(epsilon_star(geo, k) - expected) <= 1e-15


def _assert_scalar_array_parity(fn, pts):
    batch = fn(pts)
    assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
    scalar = [fn(v.item()) for v in pts.flat]
    assert all(type(v) is complex for v in scalar)
    np.testing.assert_allclose(batch.ravel(), scalar, rtol=1e-13, atol=0.0)


def test_h_and_g_scalar_array_parity():
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    rng = np.random.default_rng(45)
    strip = rng.uniform(-3, 6, 1000) + 1j * rng.uniform(-0.75, 0.75, 1000)
    # mixed-sign real points take the mirror rule for s < 0 inside one call
    real = np.concatenate((rng.uniform(-3, 3, 500), [0.0, -0.3, 0.3])).astype(complex)
    for pts in (strip, real):
        _assert_scalar_array_parity(lambda s: h_of_s(s, geo, 10.0), pts)
        _assert_scalar_array_parity(lambda s: g_of_s(s, geo, 10.0), pts)
    mirrored = g_of_s(np.array([-0.3, 0.3]), geo, 5.0)
    other = g_of_s(0.3, KnifeGeometry(R=1.0, beta=math.pi - math.pi / 3), 5.0)
    assert abs(mirrored[0] - other) <= 1e-13


def test_amplitude_v_scalar_array_parity_on_reference_nodes():
    from shadowhp.hpspace import gauss_legendre_rule, shadow_mesh

    cfg = ShadowConfig(k=16.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    pts = np.array(shadow_mesh(cfg, 8, 0.15).points)
    x, _ = gauss_legendre_rule(2 * 8 + 16)
    nodes = pts[:-1, None] + 0.5 * (pts[1:] - pts[:-1])[:, None] * (x + 1.0)
    # the shadow point itself, where H(0) = 1/2 takes both one-sided terms
    nodes = np.append(nodes, [0.0, cfg.s_sb]).reshape(-1, 2)
    _assert_scalar_array_parity(lambda s: amplitude_v(s, cfg), nodes)


def test_amplitude_v_array_rejects_one_bad_point():
    cfg = ShadowConfig(k=9.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    with pytest.raises(DomainError, match="-0.1"):
        amplitude_v(np.array([0.2, -0.1, 0.4]), cfg)
    with pytest.raises(DomainError):
        amplitude_v(np.array([0.2, math.nan]), cfg)
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    with pytest.raises(DomainError):
        g_of_s(np.array([0.2, complex(0.0, math.inf)]), geo, 5.0)

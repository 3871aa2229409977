"""Field decompositions, amplitude functions, shadow-boundary amplitude."""

import cmath
import math
import re

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
    g_of_s,
    gtd_far_field,
    h_of_s,
    psi_go,
)
from shadowhp.errors import DomainError
from shadowhp.geometry import KnifeGeometry, mu_of_s, r_of_s, strip_S_delta
from shadowhp.specfun import big_f, fresnel_fr

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


@pytest.mark.parametrize("f", [h_of_s, g_of_s])
def test_h_and_g_raise_where_the_denominator_overflows(f):
    # 2 r (r + R) overflows from about s = 9.5e153 on; h read 0 there
    geo = KnifeGeometry(1.0, 2.0)
    assert h_of_s(9e153, geo, 5.0).real == pytest.approx(1.4024516413464941e-77, rel=1e-12)
    with pytest.raises(OverflowError, match=re.escape(f"at s = {complex(1.2e154)!r}")):
        f(1.2e154, geo, 5.0)
    with pytest.raises(OverflowError, match=re.escape(f"at s = {complex(1.2e154)!r}")):
        f(np.array([0.5, 9e153, 1.2e154, 1.3e154]), geo, 5.0)


BIG = 1e300


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: e_go(FieldPoint(BIG, 1.0), BIG), "k = 1e+300, r = 1e+300, psi = 1.0"),
        (lambda: e_field(FieldPoint(BIG, 1.0), BIG), "k = 1e+300, r = 1e+300, psi = 1.0"),
        # k r is finite here, but 2 k r is not
        (lambda: e_field(FieldPoint(1e308, 1.0), 1.5), "k = 1.5, r = 1e+308, psi = 1.0"),
        (lambda: gtd_far_field(FieldPoint(BIG, 1.0), BIG), "k = 1e+300, r = 1e+300"),
        (lambda: e_remainder_check(FieldPoint(BIG, 4.0), BIG), "k = 1e+300, r = 1e+300"),
        (
            lambda: psi_go(BIG, ShadowConfig(k=BIG, alpha=3.0, l_nc=1.5, l_nc_prime=1.0)),
            "s = 1e+300, k = 1e+300",
        ),
    ],
    ids=["e_go", "e_field", "e_field-2kr", "gtd_far_field", "e_remainder_check", "psi_go"],
)
def test_field_functions_raise_where_the_phase_overflows(call, named):
    with pytest.raises(OverflowError, match=re.escape(f"not finite at {named}")):
        call()


_GEO = KnifeGeometry(1.0, 2.0)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: mu_of_s(0.5, _GEO, k),
        lambda k: e_field(FieldPoint(1.0, 4.0), k),
        lambda k: e_go(FieldPoint(1.0, 4.0), k),
        lambda k: gtd_far_field(FieldPoint(1.0, 1.0), k),
        lambda k: h_of_s(0.5, _GEO, k),
        lambda k: g_of_s(0.5, _GEO, k),
        lambda k: de_dn_check(1.0, _GEO, k),
    ],
    ids=["mu_of_s", "e_field", "e_go", "gtd_far_field", "h_of_s", "g_of_s", "de_dn_check"],
)
def test_functions_of_k_reject_a_wavenumber_that_is_not_finite_and_positive(call, k):
    with pytest.raises(DomainError, match=rf"wavenumber k must be finite and positive, got {k}"):
        call(k)


def test_field_functions_keep_values_where_no_phase_is_formed():
    # past the shadow boundary the GO part is 0 without a phase
    assert e_go(FieldPoint(BIG, 4.0), BIG) == 0j
    assert e_go(FieldPoint(1e150, 1.0), 1e150) == cmath.exp(-1j * 1e150 * 1e150 * math.cos(1.0))


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
    # the negative real points are the mirrored geometry's points, bit for bit
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    mirrored = KnifeGeometry(R=1.0, beta=math.pi - math.pi / 3)
    assert g_of_s(-0.3, geo, 5.0) == g_of_s(0.3, mirrored, 5.0)
    rng = np.random.default_rng(46)
    for _ in range(100):
        geo = KnifeGeometry(R=rng.uniform(0.1, 3.0), beta=rng.uniform(0.05, 3.09))
        mirrored = KnifeGeometry(R=geo.R, beta=math.pi - geo.beta)
        s, k = rng.uniform(0.0, 3.0, 40), rng.uniform(1.0, 100.0)
        expected = g_of_s(s, mirrored, k).view(np.uint64)
        np.testing.assert_array_equal(g_of_s(-s, geo, k).view(np.uint64), expected)
        both = g_of_s(np.concatenate((s, -s)), geo, k).view(np.uint64)
        np.testing.assert_array_equal(both[80:], expected)
        np.testing.assert_array_equal(both[:80], g_of_s(s, geo, k).view(np.uint64))


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


@pytest.mark.parametrize("s", [math.inf, math.nan, 0.0, -1.0])
def test_de_dn_check_rejects_an_arc_length_that_is_not_finite_and_positive(s):
    with pytest.raises(DomainError, match=rf"^arc length must be finite and positive, got {s}$"):
        de_dn_check(s, _GEO, 5.0)


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


def test_amplitude_v_reads_the_plus_geometry_only_at_the_shadow_point(monkeypatch):
    import shadowhp.amplitudes as amplitudes
    from shadowhp.hpspace import gauss_legendre_rule, shadow_mesh

    cfg = ShadowConfig(k=16.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    pts = np.array(shadow_mesh(cfg, 8, 0.15).points)
    x, _ = gauss_legendre_rule(8)
    nodes = (pts[:-1, None] + 0.5 * (pts[1:] - pts[:-1])[:, None] * (x + 1.0)).ravel()
    assert (nodes < cfg.s_sb).any() and (nodes > cfg.s_sb).any()
    expected = amplitude_v(nodes, cfg)
    at_sb = amplitude_v(cfg.s_sb, cfg)

    reads, calls = [], []
    plus = ShadowConfig.geo_plus
    monkeypatch.setattr(
        ShadowConfig, "geo_plus", property(lambda c: reads.append(c) or plus.fget(c))
    )
    g = amplitudes.g_of_s

    def counted_g(s, geo, k):
        calls.append((s, geo))
        return g(s, geo, k)

    monkeypatch.setattr(amplitudes, "g_of_s", counted_g)
    np.testing.assert_array_equal(amplitude_v(nodes, cfg), expected)
    assert reads == []
    # one call from V on every point of the minus geometry; the rest are the
    # mirror rule's own calls, which split those points between them
    (outer, geo), inner = calls[0], calls[1:]
    assert outer.size == 2 * nodes.size and geo == cfg.geo_minus
    assert sum(np.size(s) for s, _ in inner) == outer.size

    # at s_sb, H(0) = 1/2 takes half of each one-sided term
    assert amplitude_v(cfg.s_sb, cfg) == at_sb
    assert len(reads) == 1
    half = 0.5 * (g(0.0, cfg.geo_minus, cfg.k) - g(0.0, cfg.geo_plus, cfg.k))
    assert abs(at_sb - (half - g(2.0 * cfg.s_sb, cfg.geo_minus, cfg.k))) <= 1e-13 * abs(at_sb)


def test_amplitude_v_array_rejects_one_bad_point():
    cfg = ShadowConfig(k=9.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    with pytest.raises(DomainError, match="-0.1"):
        amplitude_v(np.array([0.2, -0.1, 0.4]), cfg)
    with pytest.raises(DomainError):
        amplitude_v(np.array([0.2, math.nan]), cfg)
    # a complex arc length is refused, not cut to its real part
    with pytest.raises(DomainError, match=re.escape("arc length must be real, got (0.5+0.3j)")):
        amplitude_v(0.5 + 0.3j, cfg)
    with pytest.raises(DomainError, match=re.escape("arc length must be real, got (0.5+0.3j)")):
        amplitude_v(np.array([0.5 + 0.3j, 0.2]), cfg)
    geo = KnifeGeometry(R=1.0, beta=math.pi / 3)
    with pytest.raises(DomainError):
        g_of_s(np.array([0.2, complex(0.0, math.inf)]), geo, 5.0)
    # pi - 1e-17 rounds to pi, so the mirrored geometry does not exist
    with pytest.raises(DomainError, match=r"needs pi - beta to stay below pi; beta = 1e-17"):
        g_of_s(-1.0, KnifeGeometry(1.0, 1e-17), 5.0)


def _assert_real_path_matches_complex(s, geo, k):
    for f, args in ((r_of_s, ()), (mu_of_s, (k,)), (h_of_s, (k,)), (g_of_s, (k,))):
        np.testing.assert_array_equal(f(s, geo, *args), f(s.astype(complex), geo, *args))


@pytest.mark.parametrize("beta", [0.4, 1.2, math.pi / 2, 2.0, 2.9])
def test_real_points_give_the_complex_values_bit_for_bit(beta):
    # a float64 array runs r, mu and h in real arithmetic; negative s take
    # g's mirror rule
    geo = KnifeGeometry(1.3, beta)
    s = np.random.default_rng(11).uniform(-4.0, 4.0, 300)
    s[:3] = (0.0, geo.R * math.cos(beta), -geo.R * math.cos(beta))
    _assert_real_path_matches_complex(s, geo, 6.5)
    for f, args in ((r_of_s, ()), (mu_of_s, (6.5,)), (h_of_s, (6.5,))):
        assert f(s, geo, *args).dtype == np.float64
    # F and Fr at V's real Fresnel arguments mu, at the points themselves and
    # at signed zeros, subnormals and points far out on the real line
    extremes = np.array([-0.0, 5e-324, -1e-300, 1e-8, 30.0, -1e3, 1e150, -1e150])
    for x in (mu_of_s(s, geo, 6.5), s, extremes):
        for f in (big_f, fresnel_fr):
            out = f(x)
            assert out.dtype == np.complex128
            assert out.tobytes() == f(x.astype(complex)).tobytes()


@pytest.mark.parametrize(
    ("geo", "points"),
    [
        # rounding takes r's radicand below 0
        (KnifeGeometry(0.2698473009350636, 1.0194153802344125e-08), [0.2698473009350639, -0.3]),
        # rounding takes the radicand R - s cos(beta) + r of mu's root below 0
        (KnifeGeometry(1.0, 1e-9), [2.00216, 2.0024, -0.5]),
    ],
)
def test_real_points_with_a_negative_radicand_take_the_complex_root(geo, points):
    _assert_real_path_matches_complex(np.array(points), geo, 5.0)


@pytest.mark.parametrize("f", [h_of_s, g_of_s])
def test_h_and_g_raise_where_r_rounds_to_zero(f):
    # off the cut, but R sin(beta) is below the rounding of r's radicand, so
    # r(s) reads 0 and so does h's denominator 2 r (r + R)
    geo = KnifeGeometry(0.6395080848042881, 8.97898823953947e-12)
    s = 0.6395080848042852
    assert r_of_s(s, geo) == 0.0
    for points in (s, complex(s), np.array([0.1, s])):
        with pytest.raises(OverflowError, match=re.escape(f"at s = {complex(s)!r}")):
            f(points, geo, 5.0)

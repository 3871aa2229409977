"""Acceptance gate: nine end-to-end criteria, one reported verdict line each.

Each test prints `ACCEPTANCE <id> (<name>): PASS/FAIL <measurements>` on the
real stdout (bypassing capture) before asserting, so the teed run log always
carries the full scoreboard.
"""

import cmath
import math
import time

import numpy as np
from oracles import bernstein_rho, de_dn_check, e_remainder_check, fit_rate, fresnel_oracle

from shadowhp.amplitudes import (
    FieldPoint,
    ShadowConfig,
    amplitude_v,
    e_field,
    g_of_s,
    psi_go,
)
from shadowhp.experiments import ExperimentGrid, run_grid
from shadowhp.hpspace import (
    Mesh,
    PiecewisePolySpace,
    best_approx_error,
    l2_project,
)
from shadowhp.regions import KnifeGeometry
from shadowhp.specfun import big_f, fresnel_fr, sector_bound_cert

PI = math.pi
BASE = ShadowConfig(k=16.0, alpha=0.75 * PI, l_nc=1.5, l_nc_prime=1.0)


def _report(capsys, tag: str, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {tag} ({name}): {verdict} {detail}", flush=True)


def test_criterion_1_oracle_agreement(capsys):
    start = time.perf_counter()
    worst = 0.0
    for x in np.linspace(-3.0, 3.0, 21):
        for y in np.linspace(-3.0, 3.0, 21):
            z = complex(x, y)
            ours = fresnel_fr(z)
            ref = fresnel_oracle(z)
            worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(capsys, "1", "oracle agreement", ok, f"max rel err {worst:.3e}, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_symmetry_suites(capsys):
    rng = np.random.default_rng(2)
    worst = {}

    def draw_z() -> complex:
        rad = 1.8 * math.sqrt(rng.uniform())
        return rad * cmath.exp(1j * rng.uniform(0.0, 2.0 * PI))

    worst["Fr"] = max(
        abs(fresnel_fr(-z) + fresnel_fr(z) - 1.0) for z in (draw_z() for _ in range(1000))
    )
    worst["F"] = max(
        abs(big_f(-z) + big_f(z) - cmath.exp(-1j * z * z))
        for z in (draw_z() for _ in range(1000))
    )

    def draw_field() -> tuple[float, float, float]:
        return (
            float(rng.uniform(1e-3, 20.0)),
            float(rng.uniform(1e-6, 2.0 * PI - 1e-6)),
            float(rng.uniform(0.5, 50.0)),
        )

    worst["E even"] = max(
        abs(e_field(FieldPoint(r, -psi), k) - e_field(FieldPoint(r, psi), k))
        for r, psi, k in (draw_field() for _ in range(1000))
    )
    worst["E sheet"] = max(
        abs(
            e_field(FieldPoint(r, psi + 2.0 * PI), k)
            - (cmath.exp(-1j * k * r * math.cos(psi)) - e_field(FieldPoint(r, psi), k))
        )
        for r, psi, k in (draw_field() for _ in range(1000))
    )

    def draw_line() -> tuple[float, float, float, float]:
        return (
            float(rng.uniform(0.01, 3.0)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.2, PI - 0.2)),
            float(rng.uniform(1.0, 50.0)),
        )

    worst["g mirror"] = max(
        abs(
            g_of_s(-s, KnifeGeometry(R, beta), k)
            - g_of_s(s, KnifeGeometry(R, PI - beta), k)
        )
        for s, R, beta, k in (draw_line() for _ in range(1000))
    )

    overall = max(worst.values())
    ok = overall <= 1e-12
    detail = ", ".join(f"{name} {value:.2e}" for name, value in worst.items())
    _report(capsys, "2", "symmetry suites", ok, detail)
    assert overall <= 1e-12


def test_criterion_3_field_decomposition(capsys):
    worst = 0.0
    radii = np.linspace(1e-3, 20.0, 50)
    angles = np.linspace(0.0, 2.0 * PI, 52)[1:-1]
    for k in (1.0, 10.0, 100.0):
        for r in radii:
            for psi in angles:
                worst = max(worst, e_remainder_check(FieldPoint(float(r), float(psi)), k))
            worst = max(worst, e_remainder_check(FieldPoint(float(r), PI), k))
    ok = worst <= 1e-12
    _report(capsys, "3", "field decomposition", ok, f"max residual {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_4_normal_derivative_decomposition(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        s = float(rng.uniform(0.05, 3.0))
        geo = KnifeGeometry(
            R=float(rng.uniform(0.5, 3.0)), beta=float(rng.uniform(0.3, PI - 0.3))
        )
        k = float(rng.uniform(1.0, 30.0))
        worst = max(worst, de_dn_check(s, geo, k))
    ok = worst <= 1e-6
    _report(capsys, "4", "normal-derivative decomposition", ok, f"max residual {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_5_sector_bound(capsys):
    cert = sector_bound_cert(10000)
    ok = cert.max_observed <= 1.59 and 1.10 <= cert.max_observed <= 1.25
    _report(
        capsys,
        "5",
        "sector bound",
        ok,
        f"max observed {cert.max_observed:.6f} over {cert.n_samples} samples, "
        f"bound {cert.c_upper}",
    )
    assert cert.max_observed <= 1.59
    assert 1.10 <= cert.max_observed <= 1.25


def _trace(s: float, cfg: ShadowConfig) -> complex:
    return psi_go(s, cfg) + amplitude_v(s, cfg) * cmath.exp(
        1j * cfg.k * math.hypot(s, cfg.l_nc_prime)
    )


def _one_sided_value(cfg: ShadowConfig, side: float) -> complex:
    # first-order Richardson limit of the trace from one side of s_sb
    h = side * 1e-9 * (1.0 + cfg.s_sb)
    return 2.0 * _trace(cfg.s_sb + h, cfg) - _trace(cfg.s_sb + 2.0 * h, cfg)


def _one_sided_derivative(cfg: ShadowConfig, side: float) -> complex:
    # fourth-order stencil on the five nearest offsets, excluding s_sb itself
    h = side * min(1e-5 * (1.0 + cfg.s_sb), cfg.s_sb / 8.0)
    offsets = np.arange(1, 6) * h
    m = np.zeros((5, 5))
    for col in range(5):
        m[:, col] = offsets**col / math.factorial(col)
    weights = np.linalg.solve(m.T, np.eye(5)[1])
    return complex(sum(w * _trace(cfg.s_sb + d, cfg) for w, d in zip(weights, offsets)))


def test_criterion_6_trace_continuity(capsys):
    rng = np.random.default_rng(6)
    worst_value = 0.0
    worst_deriv = 0.0
    for _ in range(20):
        cfg = ShadowConfig(
            k=float(rng.uniform(4.0, 256.0)),
            alpha=float(rng.uniform(0.5 * PI + 0.02, PI - 0.02)),
            l_nc=1.5,
            l_nc_prime=1.0,
        )
        left = _one_sided_value(cfg, -1.0)
        right = _one_sided_value(cfg, 1.0)
        worst_value = max(worst_value, abs(right - left))
        d_left = _one_sided_derivative(cfg, -1.0)
        d_right = _one_sided_derivative(cfg, 1.0)
        scale = max(1.0, abs(d_left), abs(d_right))
        worst_deriv = max(worst_deriv, abs(d_right - d_left) / scale)
    ok = worst_value <= 1e-6 and worst_deriv <= 1e-3
    _report(
        capsys,
        "6",
        "trace continuity",
        ok,
        f"value mismatch {worst_value:.3e}, derivative mismatch {worst_deriv:.3e}",
    )
    assert worst_value <= 1e-6
    assert worst_deriv <= 1e-3


def test_criterion_7a_exponential_rate(capsys):
    grid = ExperimentGrid(
        k_values=(16.0,), alpha_values=(0.75 * PI,), p_values=tuple(range(2, 11))
    )
    rows = run_grid(grid)
    fit = fit_rate([(r.p, r.relative_error) for r in rows])
    ok = fit.tau >= 0.3 and fit.r_squared >= 0.95
    _report(capsys, "7a", "exponential rate", ok, f"tau {fit.tau:.4f}, r^2 {fit.r_squared:.5f}")
    assert fit.tau >= 0.3
    assert fit.r_squared >= 0.95


def test_criterion_7b_uniform_in_alpha(capsys):
    alphas = tuple(float(a) for a in np.linspace(0.5 * PI, PI, 33)[1:])
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=alphas, p_values=(8,))
    rows = run_grid(grid)
    errs = np.array([r.relative_error for r in rows])
    ratio = float(errs.max() / np.median(errs))
    ok = ratio <= 10.0
    _report(
        capsys,
        "7b",
        "uniform-in-alpha boundedness",
        ok,
        f"max/median {ratio:.1f} (max {errs.max():.3e} at alpha "
        f"{rows[int(errs.argmax())].alpha:.4f}, median {np.median(errs):.3e})",
    )
    assert ratio <= 10.0


def test_criterion_7c_mild_k_growth(capsys):
    grid = ExperimentGrid(
        k_values=(4.0, 16.0, 64.0, 256.0), alpha_values=(0.75 * PI,), p_values=(8,)
    )
    rows = run_grid(grid)
    errs = np.array([r.relative_error for r in rows])
    factor = float(errs.max() / errs.min())
    ok = factor <= 100.0
    _report(
        capsys,
        "7c",
        "mild k-growth",
        ok,
        "factor {:.0f} across k in {} (errors {})".format(
            factor,
            [int(r.k) for r in rows],
            ", ".join(f"{e:.3e}" for e in errs),
        ),
    )
    assert factor <= 100.0


def test_criterion_7d_dof_jump(capsys):
    alpha_star = 0.5 * PI + math.atan(2.0 / 3.0)
    below = (alpha_star - 0.15, alpha_star - 0.05)
    above = (alpha_star + 0.05, alpha_star + 0.15)
    grid = ExperimentGrid(k_values=(16.0,), alpha_values=below + above, p_values=(8,))
    rows = run_grid(grid)
    dof = {r.alpha: r.dof for r in rows}
    ok = max(dof[a] for a in below) < min(dof[a] for a in above)
    _report(
        capsys,
        "7d",
        "dof jump across the illumination threshold",
        ok,
        f"dof {[dof[a] for a in below]} below vs {[dof[a] for a in above]} above",
    )
    assert ok


def test_criterion_8_pole_decay_rate(capsys):
    details = []
    ok = True
    for c in (-0.5, 1.9, 0.5 + 0.8j):
        eps = 1.0 / (abs(c - 0.0) + abs(c - 1.0))
        rho = bernstein_rho(eps)
        space = lambda p: PiecewisePolySpace(
            mesh=Mesh(points=(0.0, 1.0)), degree=p
        )
        ps = np.arange(2, 15)
        errs = np.array(
            [l2_project(lambda s: 1.0 / (s - c), [space(int(p))])[0].error_l2 for p in ps]
        )
        slope = float(np.polyfit(ps, np.log(errs), 1)[0])
        dev = abs(slope + math.log(rho)) / math.log(rho)
        ok = ok and dev <= 0.10
        details.append(f"c={c}: slope {slope:.4f} vs -log rho {-math.log(rho):.4f}")
    _report(capsys, "8", "pole decay rate", ok, "; ".join(details))
    assert ok


def test_criterion_9_projection_algebra(capsys):
    mesh = Mesh(points=(0.0, 0.5, 1.5))
    space = PiecewisePolySpace(mesh=mesh, degree=4)

    def reconstruct(coeffs, s: float) -> complex:
        for (a, b), c in zip(space.mesh.elements(), coeffs):
            if a <= s <= b:
                half = 0.5 * (b - a)
                t = (s - a) / half - 1.0
                scale = np.sqrt((2.0 * np.arange(len(c)) + 1.0) / 2.0)
                return complex(np.polynomial.legendre.legval(t, c * scale)) / math.sqrt(half)
        raise AssertionError

    (res,) = l2_project(lambda s: amplitude_v(s, BASE), [space])
    (again,) = l2_project(
        np.vectorize(lambda s: reconstruct(res.coefficients, s), otypes=[complex]), [space]
    )
    idem = again.error_l2

    norm2 = (res.error_l2 / res.relative_error) ** 2
    proj2 = sum(float(np.sum(np.abs(c) ** 2)) for c in res.coefficients)
    pyth = abs(norm2 - (proj2 + res.error_l2**2)) / norm2

    (poly,) = l2_project(lambda s: (0.3 + 0.7j) * s**4 - 2.0 * s + 1.0, [space])
    repro = poly.relative_error

    ok = idem <= 1e-13 and pyth <= 1e-10 and repro <= 1e-12
    _report(
        capsys,
        "9",
        "projection algebra",
        ok,
        f"idempotence {idem:.2e}, pythagoras {pyth:.2e}, reproduction {repro:.2e}",
    )
    assert idem <= 1e-13
    assert pyth <= 1e-10
    assert repro <= 1e-12

"""Meshes, quadrature and L2 projection."""

import math

import numpy as np
import pytest

import shadowhp.hpspace as hpspace
from shadowhp.amplitudes import ShadowConfig, amplitude_v
from shadowhp.errors import ConfigError, DomainError
from shadowhp.hpspace import (
    MAX_LAYERS,
    MERGE_RTOL,
    Mesh,
    PiecewisePolySpace,
    _orthonormal_vandermonde,
    bernstein_rho,
    best_approx_error,
    gauss_legendre_rule,
    geometric_mesh,
    l2_project,
    shadow_mesh,
)

CFG = ShadowConfig(k=16.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)


def _assert_points(mesh: Mesh, expected: list[float]) -> None:
    assert len(mesh.points) == len(expected)
    for got, want in zip(mesh.points, expected):
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300)


def test_geometric_mesh_examples():
    _assert_points(geometric_mesh(1.0, 2, 0.15), [0.0, 0.15, 1.0])
    _assert_points(geometric_mesh(1.0, 1, 0.15), [0.0, 1.0])
    _assert_points(geometric_mesh(1.5, 3, 0.15), [0.0, 0.03375, 0.225, 1.5])


def test_geometric_mesh_validation():
    with pytest.raises(DomainError):
        geometric_mesh(0.0, 2, 0.15)
    with pytest.raises(DomainError):
        geometric_mesh(1.0, 0, 0.15)
    with pytest.raises(DomainError):
        geometric_mesh(1.0, 2, 1.0)
    with pytest.raises(DomainError):
        geometric_mesh(1.0, 2, 0.0)
    # the finest point underflows to 0.0: rejected before any point is built
    with pytest.raises(DomainError, match="finest point"):
        geometric_mesh(1.5, MAX_LAYERS, 0.15)
    # past the layer cap: a run option out of range, rejected before the
    # underflow check and before a billion points are built
    for n, sigma in ((10**9, 0.15), (MAX_LAYERS + 1, 0.999), (80000, 0.99999)):
        with pytest.raises(ConfigError, match="exceeds MAX_LAYERS"):
            geometric_mesh(1.5, n, sigma)
    assert len(geometric_mesh(1.5, MAX_LAYERS, 0.999).points) == MAX_LAYERS + 1


def test_mesh_validation():
    with pytest.raises(DomainError):
        Mesh(points=(0.0,))
    with pytest.raises(DomainError):
        Mesh(points=(0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        PiecewisePolySpace(mesh=Mesh(points=(0.0, 1.0)), degree=-1)


def test_mesh_rejects_a_nan_point():
    # every comparison with NaN is false, so a NaN breaks the strict order
    with pytest.raises(DomainError, match="strictly increasing"):
        Mesh(points=(0.0, math.nan, 1.0))


def test_shadow_mesh_centered_at_origin():
    # alpha = pi puts the shadow point at s = 0; the left copy falls outside
    # and sigma^0 l_nc lands exactly on the right endpoint
    cfg = ShadowConfig(k=16.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
    assert cfg.s_sb == 0.0
    _assert_points(shadow_mesh(cfg, 2, 0.15), [0.0, 0.225, 1.5])


def test_shadow_mesh_interior_single_layer():
    assert CFG.s_sb == pytest.approx(1.0, rel=1e-15)
    _assert_points(shadow_mesh(CFG, 1, 0.15), [0.0, 1.0, 1.5])


def test_shadow_mesh_two_layers_both_sides():
    _assert_points(shadow_mesh(CFG, 2, 0.15), [0.0, 0.775, 1.0, 1.225, 1.5])


def test_shadow_mesh_far_outside_degenerates():
    # shadow point beyond twice the side length: only the endpoints survive
    cfg = ShadowConfig(k=16.0, alpha=0.5 * math.pi + 0.1, l_nc=1.5, l_nc_prime=1.0)
    assert cfg.s_sb > 2.0 * cfg.l_nc
    mesh = shadow_mesh(cfg, 3, 0.15)
    assert mesh.points == (0.0, 1.5)
    assert mesh.n_elements == 1


def test_shadow_mesh_merges_near_endpoint():
    # shadow point a hair inside the right endpoint: the coincident candidate
    # is absorbed, endpoints stay exact, gaps stay above the merge tolerance
    alpha = math.pi - math.atan(1.5 - 1e-14)
    cfg = ShadowConfig(k=16.0, alpha=alpha, l_nc=1.5, l_nc_prime=1.0)
    mesh = shadow_mesh(cfg, 2, 0.15)
    assert mesh.points[0] == 0.0
    assert mesh.points[-1] == 1.5
    gaps = np.diff(mesh.points)
    assert np.all(gaps > MERGE_RTOL * cfg.l_nc)


@pytest.mark.parametrize("alpha", [2.2, 0.75 * math.pi, 2.6, 2.9, 3.1])
def test_shadow_mesh_keeps_the_shadow_point(alpha):
    # V jumps at s_sb, so no element may straddle it however fine the layers
    cfg = ShadowConfig(k=16.0, alpha=alpha, l_nc=1.5, l_nc_prime=1.0)
    assert 0.0 < cfg.s_sb < cfg.l_nc
    for n in range(1, 41):
        mesh = shadow_mesh(cfg, n, 0.15)
        assert cfg.s_sb in mesh.points
        assert np.all(np.diff(mesh.points) > MERGE_RTOL * cfg.l_nc)


def test_best_approx_converges_past_the_merge_tolerance():
    # from n = 16 the finest layers fall below the merge tolerance; if they
    # displaced s_sb, one element would straddle the jump and the error stall
    # near 1e-6
    cfg = ShadowConfig(k=1024.0, alpha=0.75 * math.pi, l_nc=1.5, l_nc_prime=1.0)
    assert best_approx_error(cfg, 24, 0.15, 24).relative_error < 1e-11


def test_gauss_rule_examples():
    x1, w1 = gauss_legendre_rule(1)
    assert x1[0] == pytest.approx(0.0, abs=1e-300)
    assert w1[0] == pytest.approx(2.0, rel=1e-15)
    x2, w2 = gauss_legendre_rule(2)
    assert x2 == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rel=1e-15)
    assert w2 == pytest.approx([1.0, 1.0], rel=1e-15)
    x3, w3 = gauss_legendre_rule(3)
    assert float(np.sum(w3 * x3**4)) == pytest.approx(0.4, abs=1e-14)


def test_gauss_rule_monomial_exactness():
    for m in (1, 2, 3, 5, 8, 13, 21, 34):
        x, w = gauss_legendre_rule(m)
        for j in range(2 * m):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert float(np.sum(w * x**j)) == pytest.approx(exact, abs=1e-13)


def test_gauss_rule_is_shared_and_read_only():
    x, w = gauss_legendre_rule(20)
    again = gauss_legendre_rule(20)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_orthonormal_vandermonde_is_shared_and_read_only():
    van = _orthonormal_vandermonde(20, 4)
    assert _orthonormal_vandermonde(20, 4) is van
    assert van.shape == (20, 5)
    with pytest.raises(ValueError):
        van[0, 0] = 0.0
    _, w = gauss_legendre_rule(20)
    np.testing.assert_allclose(van.T @ (w[:, None] * van), np.eye(5), atol=1e-13)


def test_gauss_rule_validation():
    with pytest.raises(DomainError):
        gauss_legendre_rule(0)
    with pytest.raises(DomainError):
        gauss_legendre_rule(257)
    with pytest.raises(DomainError):
        gauss_legendre_rule(2.0)


def _space(points: tuple[float, ...], p: int) -> PiecewisePolySpace:
    return PiecewisePolySpace(mesh=Mesh(points=points), degree=p)


def _evaluate(space: PiecewisePolySpace, coeffs, s: float) -> complex:
    # reconstruct the projection from its orthonormal-Legendre coefficients
    for (a, b), c in zip(space.mesh.elements(), coeffs):
        if a <= s <= b:
            half = 0.5 * (b - a)
            t = (s - a) / half - 1.0
            scale = np.sqrt((2.0 * np.arange(len(c)) + 1.0) / 2.0)
            return complex(np.polynomial.legendre.legval(t, c * scale)) / math.sqrt(half)
    raise AssertionError(f"{s} outside the mesh")


def test_projection_reproduces_polynomials():
    space = _space((0.0, 0.4, 1.5), 3)

    def target(s: float) -> complex:
        return (0.3 + 0.7j) * s**3 - 2.0 * s + 1.0

    res = l2_project(target, space)
    assert res.relative_error <= 1e-12
    assert res.dof == 8
    for s in (0.1, 0.39, 0.41, 1.2):
        assert _evaluate(space, res.coefficients, s) == pytest.approx(target(s), rel=1e-12)


def test_projection_idempotent():
    space = _space((0.0, 0.5, 1.5), 4)
    res = l2_project(lambda s: amplitude_v(s, CFG), space)
    again = l2_project(
        np.vectorize(lambda s: _evaluate(space, res.coefficients, s), otypes=[complex]), space
    )
    assert again.error_l2 <= 1e-13
    for c0, c1 in zip(res.coefficients, again.coefficients):
        assert np.max(np.abs(c0 - c1)) <= 1e-13 * max(1.0, float(np.max(np.abs(c0))))


def test_projection_pythagoras():
    space = _space((0.0, 0.3, 0.8, 1.5), 5)
    res = l2_project(lambda s: amplitude_v(s, CFG), space)
    norm2 = (res.error_l2 / res.relative_error) ** 2
    proj2 = sum(float(np.sum(np.abs(c) ** 2)) for c in res.coefficients)
    assert norm2 == pytest.approx(proj2 + res.error_l2**2, rel=1e-10)


def test_element_errors_sum_to_the_l2_error():
    space = _space((0.0, 0.3, 0.8, 1.5), 5)
    res = l2_project(lambda s: amplitude_v(s, CFG), space)
    assert res.element_err2.shape == (space.mesh.n_elements,)
    assert not res.element_err2.flags.writeable
    assert (res.element_err2 >= 0.0).all()
    assert res.element_err2.sum() == pytest.approx(res.error_l2**2, rel=1e-12)
    for batch in best_approx_error(CFG, [2, 6, 9], 0.15, [2, 6, 9]):
        assert batch.element_err2.sum() == pytest.approx(batch.error_l2**2, rel=1e-12)
    # an exact projection has no worst share
    exact = hpspace.ProjectionResult((), 0.0, 0.0, 3, np.zeros(3))
    assert exact.worst_element == (0, 0.0)


def test_projection_results_compare_and_hash_by_identity():
    a = best_approx_error(CFG, 4, 0.15, 4)
    b = best_approx_error(CFG, 4, 0.15, 4)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.element_shares.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "alpha, element", [(0.75 * math.pi, (0.0, 0.775)), (math.pi, (0.225, 1.5))]
)
@pytest.mark.parametrize("k", [4.0, 16.0, 64.0, 256.0])
def test_worst_element_holds_the_error(k, alpha, element):
    # at p = n = 8 one element holds all but 1e-4 of the squared error
    cfg = ShadowConfig(k=k, alpha=alpha, l_nc=1.5, l_nc_prime=1.0)
    res = best_approx_error(cfg, 8, 0.15, 8)
    index, share = res.worst_element
    assert shadow_mesh(cfg, 8, 0.15).elements()[index] == pytest.approx(element, rel=1e-12)
    assert share > 0.9999
    assert share == res.element_err2.max() / res.element_err2.sum()


def test_projection_quadrature_converged():
    r1 = best_approx_error(CFG, 4, 0.15, 4)
    r2 = best_approx_error(CFG, 4, 0.15, 4, quad_order=2 * (2 * 4 + 16))
    assert r2.error_l2 == pytest.approx(r1.error_l2, rel=1e-10)


def test_projection_validation():
    space = _space((0.0, 1.0), 3)
    with pytest.raises(DomainError):
        l2_project(lambda s: s, space, quad_order=3)
    with pytest.raises(DomainError):
        l2_project(lambda s: 0.0, space)


def test_l2_project_calls_the_target_once_on_every_node():
    spaces = [_space((0.0, 0.4, 1.5), 3), _space((0.0, 1.5), 5), _space((0.0, 0.5, 1.0, 1.5), 2)]
    seen = []

    def target(s):
        seen.append(s)
        return amplitude_v(s, CFG)

    batch = l2_project(target, spaces)
    assert len(seen) == 1 and seen[0].ndim == 1
    # the default rule is 2p + 16 nodes per element
    assert seen[0].size == 2 * 22 + 26 + 3 * 20
    assert isinstance(batch, list) and len(batch) == 3
    for space, got in zip(spaces, batch):
        want = l2_project(lambda s: amplitude_v(s, CFG), space)
        assert (got.error_l2, got.relative_error, got.dof) == (
            want.error_l2, want.relative_error, want.dof
        )
        assert all(np.array_equal(a, b) for a, b in zip(got.coefficients, want.coefficients))


def test_l2_project_broadcasts_a_constant_target():
    space = _space((0.0, 0.4, 1.5), 2)
    res = l2_project(lambda s: 2.0 - 1.0j, space)
    assert res.relative_error <= 1e-13
    for s in (0.1, 0.9):
        assert _evaluate(space, res.coefficients, s) == pytest.approx(2.0 - 1.0j, rel=1e-13)
    with pytest.raises(DomainError, match="at least one space"):
        l2_project(lambda s: 1.0, [])


def test_best_approx_error_projects_once(monkeypatch):
    calls = []
    project = hpspace.l2_project
    monkeypatch.setattr(
        hpspace, "l2_project", lambda *args: calls.append(args) or project(*args)
    )
    best_approx_error(CFG, 4, 0.15, 4)
    best_approx_error(CFG, [2, 4, 6], 0.15, [2, 4, 6])
    assert [len(spaces) for _, spaces, _ in calls] == [1, 3]


def test_single_element_pole_witness():
    # analytic target 1/(s - c): projection error on one element obeys the
    # ellipse bound 2 rho^{-p} / (rho - 1) * max over the rho-ellipse
    space_points = (0.0, 1.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 20001)
    for c in (-0.5, 1.9, 0.5 + 0.8j):
        eps = 1.0 / (abs(c - 0.0) + abs(c - 1.0))
        rho = 1.0 + 0.85 * (bernstein_rho(eps) - 1.0)
        # boundary of the rho-ellipse for the element [0, 1]
        ring = rho * np.exp(1j * theta)
        boundary = 0.5 + 0.25 * (ring + 1.0 / ring)
        m_sup = 1.001 / float(np.min(np.abs(boundary - c)))
        for p in (2, 5, 8, 11, 14):
            res = l2_project(lambda s: 1.0 / (s - c), _space(space_points, p))
            assert res.error_l2 <= 2.0 * rho ** (-p) / (rho - 1.0) * m_sup


def test_bernstein_rho_values():
    assert bernstein_rho(0.5) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-15)
    assert bernstein_rho(1.0 - 1e-12) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(DomainError):
        bernstein_rho(0.0)
    with pytest.raises(DomainError):
        bernstein_rho(1.0)


def test_best_approx_plateau():
    res = best_approx_error(CFG, 12, 0.15, 12)
    assert res.relative_error <= 1e-6
    assert res.dof == len(res.coefficients) * 13


def test_best_approx_monotone_in_p_on_fixed_mesh():
    errors = [best_approx_error(CFG, 6, 0.15, p).error_l2 for p in range(2, 7)]
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi * (1.0 + 1e-10)


def test_best_approx_decreases_with_layered_refinement():
    errors = [best_approx_error(CFG, max(1, p), 0.15, p).error_l2 for p in (2, 4, 6)]
    assert errors[2] < errors[1] < errors[0]


def test_best_approx_matches_pointwise_projection():
    # best_approx_error evaluates V on all nodes at once; the reference
    # target evaluates the scalar V one node at a time
    def pointwise_v(nodes: np.ndarray) -> np.ndarray:
        return np.array([amplitude_v(float(s), CFG) for s in nodes], dtype=complex)

    for n, p in ((1, 0), (4, 3), (8, 8)):
        space = PiecewisePolySpace(mesh=shadow_mesh(CFG, n, 0.15), degree=p)
        batch = best_approx_error(CFG, n, 0.15, p)
        pointwise = l2_project(pointwise_v, space)
        assert batch.dof == pointwise.dof
        assert batch.error_l2 == pytest.approx(pointwise.error_l2, rel=1e-12)
        for c0, c1 in zip(batch.coefficients, pointwise.coefficients):
            np.testing.assert_allclose(c0, c1, rtol=1e-12, atol=1e-13 * np.max(np.abs(c1)))


def test_dof_counting():
    mesh = shadow_mesh(CFG, 3, 0.15)
    space = PiecewisePolySpace(mesh=mesh, degree=4)
    assert space.dof == mesh.n_elements * 5
    res = l2_project(lambda s: amplitude_v(s, CFG), space)
    assert res.dof == space.dof


# s_sb = 0 at alpha = pi; at alpha = 1.7 the shadow point lies beyond the
# side, so every mesh is one element
AT_PI = ShadowConfig(k=16.0, alpha=math.pi, l_nc=1.5, l_nc_prime=1.0)
ONE_ELEMENT = ShadowConfig(k=64.0, alpha=1.7, l_nc=1.5, l_nc_prime=1.0)


def test_batch_cases_cover_their_meshes():
    assert AT_PI.s_sb == 0.0
    assert all(shadow_mesh(ONE_ELEMENT, n, 0.15).n_elements == 1 for n in range(1, 11))


@pytest.mark.parametrize(
    "cfg, sigma, c",
    [
        (AT_PI, 0.15, 1.0),
        (ONE_ELEMENT, 0.15, 1.0),
        (CFG, 0.15, 2.0),
        (ShadowConfig(k=8.0, alpha=2.6, l_nc=2.0, l_nc_prime=0.7), 0.2, 1.0),
    ],
    ids=["alpha-pi", "one-element", "c2", "lnc-sigma"],
)
def test_best_approx_batch_equals_rows_bitwise(cfg, sigma, c):
    ps = list(range(11))
    ns = [max(1, math.ceil(c * p)) for p in ps]
    batch = best_approx_error(cfg, ns, sigma, ps)
    assert isinstance(batch, list) and len(batch) == len(ps)
    for n, p, got in zip(ns, ps, batch):
        want = best_approx_error(cfg, n, sigma, p)
        assert (got.error_l2, got.relative_error, got.dof) == (
            want.error_l2, want.relative_error, want.dof
        )
        assert len(got.coefficients) == len(want.coefficients)
        assert all(np.array_equal(a, b) for a, b in zip(got.coefficients, want.coefficients))


def test_best_approx_batch_validation():
    with pytest.raises(DomainError, match="equal length"):
        best_approx_error(CFG, [2, 3], 0.15, [2])
    with pytest.raises(DomainError, match="nonempty"):
        best_approx_error(CFG, [], 0.15, [])
    # a rule of at most p nodes is a run option out of range, and one bad row
    # fails the whole batch
    for n, p in ((8, 8), ([2, 8], [2, 8])):
        with pytest.raises(ConfigError, match=r"degree 8 must be an integer in \[9, 256\]"):
            best_approx_error(CFG, n, 0.15, p, quad_order=5)


def test_best_approx_non_finite_error_raises():
    huge_k = ShadowConfig(k=1.7976931348623157e308, alpha=2.4, l_nc=1.5, l_nc_prime=1.0)
    with pytest.raises(OverflowError, match="not finite"):
        best_approx_error(huge_k, 2, 0.15, 2)

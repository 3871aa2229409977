"""Kernel-level checks: accuracy, scalar/array parity, crossovers, reflections."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from shadowhp.kernel import faddeeva_w


def w_reference(z: complex) -> complex:
    mpmath.mp.dps = 40
    zm = mpmath.mpc(z.real, z.imag)
    return complex(mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm))


REFERENCE_POINTS = [
    0.0 + 0.0j,
    1e-8 + 1e-8j,
    0.1 + 0.1j,
    2.0 + 0.01j,
    5.5 + 0.1j,
    1.8 + 1.2j,
    6.2 + 0.0j,
    25.0 + 1.0j,
    60.0 + 0.5j,
    -4.0 + 0.3j,
    3.0 - 2.0j,
    0.5 - 0.4j,
    -0.7 - 0.5j,
]


def test_against_high_precision_reference():
    for z in REFERENCE_POINTS:
        ref = w_reference(z)
        got = faddeeva_w(z)
        assert abs(got - ref) <= 5e-14 * abs(ref), f"z={z}"


def test_series_recurrence_crossover_is_seamless():
    # walk a ray through the regime boundary qrho = 0.085264
    for t in np.linspace(0.25, 0.45, 200):
        z = complex(6.3 * t * 0.8, 4.4 * t * 0.6)
        ref = w_reference(z)
        assert abs(faddeeva_w(z) - ref) <= 5e-14 * abs(ref)


def test_real_axis_real_part_is_exact():
    for x in (0.3, 1.0, 2.7, 6.31, 15.0):
        assert faddeeva_w(complex(x, 0.0)).real == math.exp(-x * x)


def test_conjugation_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(500):
        z = complex(rng.uniform(-9, 9), rng.uniform(0, 9))
        lhs = faddeeva_w(complex(-z.real, z.imag))
        rhs = faddeeva_w(z).conjugate()
        assert abs(lhs - rhs) <= 1e-15 * max(abs(rhs), 1e-300)


def test_lower_half_plane_reflection():
    rng = np.random.default_rng(12)
    for _ in range(500):
        x = rng.uniform(-6, 6)
        y = -rng.uniform(0.01, 4)
        z = complex(x, y)
        direct = faddeeva_w(z)
        reflected = 2.0 * cmath.exp(-z * z) - faddeeva_w(-z)
        assert abs(direct - reflected) <= 1e-12 * max(abs(direct), 1e-300)


def test_overflow_raises():
    with pytest.raises(OverflowError):
        faddeeva_w(complex(0.0, -30.0))


def _parity_points() -> np.ndarray:
    rng = np.random.default_rng(13)
    pts = []
    for _ in range(5000):
        x = rng.uniform(-12, 12)
        y = rng.uniform(-3, 12)
        if y < 0 and y * y - x * x > 700:
            continue
        pts.append(complex(x, y))
    return np.array(pts)


def test_scalar_and_array_calls_agree_bitwise():
    pts = _parity_points()
    batch = faddeeva_w(pts)
    assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
    scalar = [faddeeva_w(complex(z)) for z in pts]
    assert all(type(v) is complex for v in scalar)
    assert np.array_equal(batch, np.array(scalar))
    assert np.array_equal(faddeeva_w(pts.reshape(-1, 2)[:50]), batch[:100].reshape(-1, 2))


def test_array_overflow_names_the_first_offending_point():
    pts = np.array([1.0 + 1.0j, 0.0 - 30.0j, 0.0 - 40.0j])
    with pytest.raises(OverflowError, match=r"-30j"):
        faddeeva_w(pts)


def test_far_out_points():
    # Im(z)^2 - Re(z)^2 is inf - inf here: no longer representable, so an overflow
    with pytest.raises(OverflowError, match="nan"):
        faddeeva_w(complex(1e160, -1e160))
    # in the upper half-plane the same size is fine: w(z) ~ i / (sqrt(pi) z)
    w = faddeeva_w(complex(1e200, 1e200))
    assert w == pytest.approx(1j / (math.sqrt(math.pi) * complex(1e200, 1e200)), rel=1e-15)

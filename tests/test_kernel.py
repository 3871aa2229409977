"""Kernel-level checks: accuracy, scalar/array parity, crossovers, reflections."""

import cmath
import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from shadowhp.errors import DomainError
from shadowhp.kernel import faddeeva_w, load_wofz


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


def test_nan_raises_naming_the_point():
    # the Faddeeva Package returns nan+nanj at a NaN
    with pytest.raises(DomainError, match=r"z = \(nan\+0j\)"):
        faddeeva_w(math.nan)
    with pytest.raises(DomainError, match=r"z = \(nan\+1j\)"):
        faddeeva_w(complex(math.nan, 1.0))
    pts = np.array([1.0 + 1.0j, complex(2.0, math.nan), complex(math.nan, 0.0)])
    with pytest.raises(DomainError, match=r"z = \(2\+nanj\)"):
        faddeeva_w(pts)
    # a NaN is named before an overflow elsewhere in the array
    with pytest.raises(DomainError):
        faddeeva_w(np.array([0.0 - 30.0j, complex(math.nan, 0.0)]).reshape(2, 1))
    # infinite components keep their limits
    assert faddeeva_w(complex(math.inf, 1.0)) == 0j
    assert faddeeva_w(np.array([complex(math.inf, 1.0)]))[0] == 0j
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


def _two_half_plane_points() -> np.ndarray:
    # |Im z| <= 20 keeps exp(-z^2) finite in the lower half-plane
    rng = np.random.default_rng(14)
    return rng.uniform(-20.0, 20.0, 20000) + 1j * rng.uniform(-20.0, 20.0, 20000)


def test_kernel_values_are_scipy_special_wofz_bitwise():
    import scipy.special

    pts = _two_half_plane_points()
    assert (pts.imag < 0).sum() > 5000 and (pts.imag > 0).sum() > 5000
    assert np.array_equal(faddeeva_w(pts), scipy.special.wofz(pts))
    assert load_wofz() is scipy.special.wofz
    # a load after scipy.special is imported takes the module it imported
    assert load_wofz.__wrapped__() is scipy.special.wofz


def _run(code: str):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOAD_PROBE = """
import json, sys
from shadowhp.kernel import load_wofz

MODULES = ("scipy.special._special_ufuncs", "scipy.special", "scipy._lib._array_api")


def loaded():
    return [m for m in MODULES if m in sys.modules]


report = {"on_import": loaded()}
wofz = load_wofz()
report["after_load"] = loaded()
import scipy.special
report["same_ufunc"] = wofz is scipy.special.wofz
import scipy.integrate
report["integrate"] = scipy.integrate.quad(lambda x: x, 0.0, 1.0)[0]
print(json.dumps(report))
"""


def test_load_wofz_loads_only_the_compiled_module():
    # scipy.special, imported later, reuses the module the kernel registered
    report = _run(_LOAD_PROBE)
    assert report["on_import"] == []
    assert report["after_load"] == ["scipy.special._special_ufuncs"]
    assert report["same_ufunc"]
    assert report["integrate"] == 0.5


_FALLBACK_PROBE = """
import json, sys
from shadowhp import kernel


class NoModule:
    @staticmethod
    def find_spec(name, path=None):
        return None


kernel.PathFinder = NoModule
wofz = kernel.load_wofz.__wrapped__()
loaded = "scipy.special" in sys.modules
import scipy.special
print(json.dumps([loaded, wofz is scipy.special.wofz, float(wofz(1j).real)]))
"""


def test_load_wofz_falls_back_to_scipy_special():
    # a scipy without the compiled module: the loader imports the package
    loaded, same, value = _run(_FALLBACK_PROBE)
    assert loaded and same
    assert value == pytest.approx(0.42758357615580705, rel=1e-15)

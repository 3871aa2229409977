"""Kernel-level checks: accuracy, batch/point parity, crossovers, reflections."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import mpmath
import numpy as np
import pytest

import shadowhp.kernel as kernel
from shadowhp.errors import DomainError
from shadowhp.kernel import faddeeva_w, load_wofz
from shadowhp.specfun import _EIPI4, big_f


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
        got = faddeeva_w([z])[0]
        assert abs(got - ref) <= 5e-14 * abs(ref), f"z={z}"


def test_series_recurrence_crossover_is_seamless():
    # walk a ray through the regime boundary qrho = 0.085264
    for t in np.linspace(0.25, 0.45, 200):
        z = complex(6.3 * t * 0.8, 4.4 * t * 0.6)
        ref = w_reference(z)
        assert abs(faddeeva_w([z])[0] - ref) <= 5e-14 * abs(ref)


def test_real_axis_real_part_is_exact():
    for x in (0.3, 1.0, 2.7, 6.31, 15.0):
        assert faddeeva_w([complex(x, 0.0)])[0].real == math.exp(-x * x)


def test_conjugation_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(500):
        z = complex(rng.uniform(-9, 9), rng.uniform(0, 9))
        lhs = faddeeva_w([complex(-z.real, z.imag)])[0]
        rhs = faddeeva_w([z])[0].conjugate()
        assert abs(lhs - rhs) <= 1e-15 * max(abs(rhs), 1e-300)


def test_lower_half_plane_reflection():
    rng = np.random.default_rng(12)
    for _ in range(500):
        x = rng.uniform(-6, 6)
        y = -rng.uniform(0.01, 4)
        z = complex(x, y)
        direct = faddeeva_w([z])[0]
        reflected = 2.0 * cmath.exp(-z * z) - faddeeva_w([-z])[0]
        assert abs(direct - reflected) <= 1e-12 * max(abs(direct), 1e-300)


def test_overflow_raises():
    with pytest.raises(OverflowError):
        faddeeva_w([complex(0.0, -30.0)])


def test_nan_raises_naming_the_point():
    # the Faddeeva Package returns nan+nanj at a NaN
    with pytest.raises(DomainError, match=r"got \(nan\+0j\)"):
        faddeeva_w([math.nan])
    with pytest.raises(DomainError, match=r"got \(nan\+1j\)"):
        faddeeva_w([complex(math.nan, 1.0)])
    pts = np.array([1.0 + 1.0j, complex(2.0, math.nan), complex(math.nan, 0.0)])
    with pytest.raises(DomainError, match=r"got \(2\+nanj\)"):
        faddeeva_w(pts)
    # a NaN is named before an overflow elsewhere in the array
    with pytest.raises(DomainError):
        faddeeva_w(np.array([0.0 - 30.0j, complex(math.nan, 0.0)]).reshape(2, 1))
    # infinite components are refused too, though wofz has a limit there
    with pytest.raises(DomainError, match=r"got \(inf\+1j\)"):
        faddeeva_w([complex(math.inf, 1.0)])
    with pytest.raises(DomainError, match=r"got \(inf\+1j\)"):
        faddeeva_w(np.array([[complex(math.inf, 1.0)]]))
    with pytest.raises(OverflowError):
        faddeeva_w([complex(0.0, -30.0)])


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


def test_batch_and_one_point_calls_agree_bitwise():
    pts = _parity_points()
    batch = faddeeva_w(pts)
    assert isinstance(batch, np.ndarray) and batch.shape == pts.shape
    one = [faddeeva_w(pts[i : i + 1]) for i in range(pts.size)]
    assert all(v.shape == (1,) for v in one)
    assert np.array_equal(batch, np.concatenate(one))
    assert np.array_equal(faddeeva_w(pts.reshape(-1, 2)[:50]), batch[:100].reshape(-1, 2))


def test_array_overflow_names_the_first_offending_point():
    pts = np.array([1.0 + 1.0j, 0.0 - 30.0j, 0.0 - 40.0j])
    with pytest.raises(OverflowError, match=r"-30j"):
        faddeeva_w(pts)


def test_far_out_points():
    # Im(z)^2 - Re(z)^2 is inf - inf here: no longer representable, so an overflow
    with pytest.raises(OverflowError, match="nan"):
        faddeeva_w([complex(1e160, -1e160)])
    # in the upper half-plane the same size is fine: w(z) ~ i / (sqrt(pi) z)
    (w,) = faddeeva_w([complex(1e200, 1e200)])
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


def _run(code: str, *argv: str):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
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
import hashlib, importlib.util, json, sys
from importlib.machinery import PathFinder
import numpy as np
from shadowhp import kernel


class NoModule:
    @staticmethod
    def find_spec(name, path=None):
        return None


class FailingLoader:
    # an extension module's loader opens it and runs its init in
    # create_module, as a numpy ABI mismatch fails; a multi-phase init
    # fails in exec_module
    def __init__(self, step):
        self.step = step

    def create_module(self, spec):
        if self.step == "create":
            raise ImportError("cannot open the compiled module")
        return None

    def exec_module(self, module):
        raise ImportError("cannot initialise the compiled module")


class FailingModule:
    def __init__(self, step):
        self.step = step

    def find_spec(self, name, path=None):
        if name == "scipy":
            return PathFinder.find_spec(name)
        return importlib.util.spec_from_loader(name, FailingLoader(self.step))


finders = {"missing": NoModule, "create": FailingModule("create"), "exec": FailingModule("exec")}
kernel.PathFinder = finders[sys.argv[1]]
re, im = np.random.default_rng(30).uniform(-6.0, 6.0, (2, 3000))
w = kernel.faddeeva_w(re + 1j * im)
loaded = "scipy.special" in sys.modules
wofz = kernel.load_wofz()
import scipy.special
digest = hashlib.sha256(w.tobytes()).hexdigest()
print(json.dumps([loaded, wofz is scipy.special.wofz, float(wofz(1j).real), digest]))
"""


@pytest.mark.parametrize("module", ["missing", "create", "exec"])
def test_load_wofz_falls_back_to_scipy_special(module):
    # a scipy without the compiled module, or whose module fails to load as
    # it is created or as it is run: the loader imports the package, and
    # faddeeva_w gives the bits of the compiled module's ufunc
    loaded, same, value, digest = _run(_FALLBACK_PROBE, module)
    assert loaded and same
    assert value == pytest.approx(0.42758357615580705, rel=1e-15)
    # the probe's seeded sample: both half-planes, where nothing overflows
    re, im = np.random.default_rng(30).uniform(-6.0, 6.0, (2, 3000))
    want = faddeeva_w(re + 1j * im)
    assert (im < 0).sum() > 1000 and (im > 0).sum() > 1000
    assert digest == hashlib.sha256(want.tobytes()).hexdigest()


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without affinity masks counts the machine's cores
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert kernel._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert kernel._usable_cores() == 1


FLOOR = kernel._MIN_POINTS_PER_THREAD


@pytest.fixture
def split_chunks(monkeypatch):
    """Chunk count of every split faddeeva_w makes."""
    counts = []
    split = kernel._split_wofz

    def recording(wofz, arr, n_chunks):
        counts.append(n_chunks)
        return split(wofz, arr, n_chunks)

    monkeypatch.setattr(kernel, "_split_wofz", recording)
    return counts


@pytest.mark.parametrize("cores", [2, 3])
def test_split_values_are_one_serial_call_bitwise(monkeypatch, split_chunks, cores):
    monkeypatch.setattr(kernel, "_usable_cores", lambda: cores)
    rng = np.random.default_rng(15)
    shapes = [(FLOOR - 1,), (2 * FLOOR,), (2 * FLOOR + 1,), (3 * FLOOR + 7,), (7, FLOOR // 2 + 3)]
    wofz = load_wofz()
    for shape in shapes:
        # |Im z| <= 20 keeps exp(-z^2) finite in the lower half-plane
        pts = rng.uniform(-20.0, 20.0, shape) + 1j * rng.uniform(-20.0, 20.0, shape)
        got = faddeeva_w(pts)
        assert got.shape == shape
        assert got.tobytes() == wofz(pts).tobytes()
        z = pts * _EIPI4.conjugate()
        assert big_f(z).tobytes() == (0.5 * wofz(_EIPI4 * z)).tobytes()
    # each array was split as often as floor and cores allow (twice: w and F)
    three = 3 if cores == 3 else 2
    assert split_chunks == [2, 2, 2, 2, three, three, three, three]


def test_split_reads_the_usable_cores(monkeypatch, split_chunks):
    pts = np.full(4 * FLOOR, 0.5 + 0.5j)
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 1)
    assert faddeeva_w(pts).tobytes() == load_wofz()(pts).tobytes()
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 8)
    faddeeva_w(pts)
    # one core: one call; eight cores: no chunk below the floor
    assert split_chunks == [4]


@pytest.mark.parametrize("bad, error, message", [
    (complex(2.0, math.nan), DomainError, r"got \(2\+nanj\)"),
    (complex(0.5, -31.0), OverflowError, r"z = \(0\.5-31j\)"),
])
def test_split_array_names_a_bad_point_in_its_last_chunk(monkeypatch, bad, error, message):
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 3)
    pts = np.full(3 * FLOOR + 7, 0.5 + 0.5j)
    pts[-1] = bad
    with pytest.raises(error, match=message):
        faddeeva_w(pts)


def test_every_chunk_runs_under_the_callers_error_state(monkeypatch):
    wofz = load_wofz()
    seen = []

    def recording_wofz(z, out=None):
        seen.append(np.geterr()["under"])
        return wofz(z) if out is None else wofz(z, out=out)

    monkeypatch.setattr(kernel, "_usable_cores", lambda: 3)
    monkeypatch.setattr(kernel, "load_wofz", lambda: recording_wofz)
    pts = np.full(3 * FLOOR, 0.5 + 0.5j)
    with np.errstate(under="raise"):
        faddeeva_w(pts)
    assert seen == ["raise"] * 3


def test_an_error_in_a_pool_chunk_reaches_the_caller(monkeypatch):
    # the caller evaluates the first chunk, the pool the second
    def failing_wofz(z, out=None):
        if z[0] == 1.0:
            raise FloatingPointError("chunk failed")
        return load_wofz.__wrapped__()(z, out=out)

    monkeypatch.setattr(kernel, "_usable_cores", lambda: 2)
    monkeypatch.setattr(kernel, "load_wofz", lambda: failing_wofz)
    pts = np.zeros(2 * FLOOR, complex)
    pts[FLOOR:] = 1.0
    with pytest.raises(FloatingPointError, match="chunk failed"):
        faddeeva_w(pts)


def test_concurrent_splits_from_many_threads(monkeypatch):
    # more calling threads and chunks than cores, switching often: every
    # result must still be its serial bits and every call must finish
    monkeypatch.setattr(kernel, "_usable_cores", lambda: 4)
    rng = np.random.default_rng(16)
    arrays = [rng.uniform(-9.0, 9.0, 4 * FLOOR + i) + 0.5j for i in range(8)]
    wofz = load_wofz()
    want = [wofz(a).tobytes() for a in arrays]
    got = [None] * len(arrays)

    def work(i):
        for _ in range(3):
            got[i] = faddeeva_w(arrays[i]).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(arrays))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


_FORK_PROBE = """
import json, multiprocessing, sys
import numpy as np
from shadowhp import kernel

kernel._usable_cores = lambda: 2
pts = np.linspace(-5.0, 5.0, 4 * kernel._MIN_POINTS_PER_THREAD) + 0.5j
want = kernel.load_wofz()(pts).tobytes()
report = {"parent_split": kernel.faddeeva_w(pts).tobytes() == want}
report["pool_started"] = kernel._pool is not None


def child():
    sys.exit(0 if kernel.faddeeva_w(pts).tobytes() == want else 1)


proc = multiprocessing.get_context("fork").Process(target=child)
proc.start()
report["pool_dropped_at_fork"] = kernel._pool is None
proc.join(60)
if proc.exitcode is None:
    proc.kill()
    proc.join()
report["child_exit"] = proc.exitcode
report["split_after_fork"] = kernel.faddeeva_w(pts).tobytes() == want
print(json.dumps(report))
"""


def test_split_survives_a_fork():
    # a forked child must not inherit the parent's executor without threads
    report = _run(_FORK_PROBE)
    assert report == {
        "parent_split": True,
        "pool_started": True,
        "pool_dropped_at_fork": True,
        "child_exit": 0,
        "split_after_fork": True,
    }


_THREAD_PROBE = """
import contextlib, io, json, sys, threading
from shadowhp import kernel
from shadowhp.cli import main

kernel._usable_cores = lambda: 2


def state():
    return [threading.active_count(), sorted(m for m in sys.modules if m.startswith("concurrent"))]


# a sweep command of the benchmark's pool whose largest w call, 4896 points,
# is as large as any in the pool
config = sys.argv[1] + "/sweep.cfg"
with open(config, "w") as f:
    for line in ("k_values=4", "alpha_values=2.5034566458293663",
                 "p_values=2,3,4,5,6,7,8,9,10", f"output={sys.argv[1]}/sweep.csv"):
        print(line, file=f)

report = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in (
        ("region", ["region", "--R", "1", "--beta", "2", "--nx", "40", "--ny", "30"]),
        ("cert_1000", ["cert", "--n-samples", "1000"]),
        ("cert_10000", ["cert", "--n-samples", "10000"]),
        ("experiment", ["experiment", config]),
        ("cert_30000", ["cert", "--n-samples", "30000"]),
    ):
        assert main(argv) == 0
        report[name] = state()
print(json.dumps(report))
"""


def test_small_commands_start_no_thread(tmp_path):
    # only an array of 2 * FLOOR points or more starts the pool and loads
    # concurrent.futures: no benchmark-sized command reaches that, and cert
    # at 30000 samples (10 532 points evaluated) is the control that does
    report = _run(_THREAD_PROBE, str(tmp_path))
    assert report["region"] == [1, []]
    assert report["cert_1000"] == [1, []]
    assert report["cert_10000"] == [1, []]
    assert report["experiment"] == [1, []]
    threads, modules = report["cert_30000"]
    assert threads == 2 and "concurrent.futures.thread" in modules

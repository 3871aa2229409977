"""Faddeeva kernel w(z) = exp(-z^2) erfc(-iz).

w is S. G. Johnson's Faddeeva Package as shipped in scipy's wofz ufunc,
applied elementwise. KERNEL_BACKEND, read as shadowhp.KERNEL_BACKEND,
names it for run records. For Im z < 0 that code applies the reflection
w(z) = 2 exp(-z^2) - w(-z) itself, so callers such as specfun.big_f pass
any point straight in. faddeeva_w is the one place that checks the
exponential of that reflection stays inside the double range: it raises
OverflowError where it would not, rather than return inf or NaN.

The ufunc is loaded at the first evaluation of w, not with this module,
and only from scipy's compiled module scipy.special._special_ufuncs: the
scipy.special package itself is never imported. Its __init__ pulls in
scipy's array-API layer (array_api_compat, numpy.f2py, unittest), about
0.3 s and 16 MB, none of which w needs. The compiled module is registered
in sys.modules under its own name, so a later `import scipy.special`
reuses it and scipy.special.wofz is the same ufunc object. A scipy without
that module, or whose module has no wofz, gets w from scipy.special
instead. A process that never evaluates w (`shadowhp region`, `--help`, a
command that exits 2 on a bad option) loads no scipy at all. Reading
KERNEL_BACKEND loads nothing.

An array of at least 2 * _MIN_POINTS_PER_THREAD points is evaluated in
contiguous chunks, one per usable core (_usable_cores, the rule run_grid
also sizes its process pool by) and never fewer than
_MIN_POINTS_PER_THREAD points each. The overflow and NaN checks run on the
whole array first. The calling thread evaluates the first chunk and a
thread pool, started at the first split, the others, each writing into its
slice of one output array. wofz releases the GIL and works point by point,
so every value is the bits of one serial call. Each chunk runs under a copy
of the caller's context, which carries numpy's error state. The chunks call
the ufunc itself, never a module attribute, so a tracer that wraps
faddeeva_w sees one call. Before a fork the pool is shut down and dropped,
so a forked child never inherits an executor without threads; the next
split starts a new one. Scalars, smaller arrays and one-core processes make
one ufunc call, and concurrent.futures is imported only at the first split.
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from shadowhp._arrays import first
from shadowhp.errors import DomainError

KERNEL_BACKEND = "scipy"

#: scipy's compiled module that holds the wofz ufunc
_UFUNC_MODULE = "scipy.special._special_ufuncs"

#: largest Re(-z^2) for which the lower-half-plane term exp(-z^2) is kept
_RE_MZ2_MAX = 708.0

#: Fewest points a thread evaluates when faddeeva_w splits an array. On a
#: 2-core VM a 2-way split of faddeeva_w alone lost at 1024 points and won
#: from 2048 on (figures in CHANGES.md); the floor keeps every w call of a
#: sweep command (at most 4896 points) in one piece, where a split lost.
_MIN_POINTS_PER_THREAD = 4096

#: threads that evaluate all but the first chunk of a split; started at the
#: first split, and shut down and dropped before a fork
_pool = None
#: held while _pool is read or replaced and work is submitted to it, and
#: across a fork, so that no thread starts a pool a child would inherit
_pool_lock = threading.Lock()

__all__ = ["KERNEL_BACKEND", "faddeeva_w", "load_wofz"]


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drop_pool_before_fork() -> None:
    """Take _pool_lock (released on both sides of the fork) and shut the pool
    down: a forked child would inherit an executor without its threads."""
    global _pool
    _pool_lock.acquire()
    if _pool is not None:
        _pool.shutdown()
        _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_drop_pool_before_fork,
        after_in_parent=_pool_lock.release,
        after_in_child=_pool_lock.release,
    )


def _split_wofz(wofz, arr: np.ndarray, n_chunks: int) -> np.ndarray:
    """wofz(arr) in n_chunks contiguous chunks: the first in this thread, the
    rest in _pool, each under a copy of this thread's context (numpy's error
    state) and written in place into one output array."""
    global _pool
    flat = arr.reshape(-1)
    out = np.empty(arr.shape, dtype=complex)
    res = out.reshape(-1)
    cuts = [flat.size * i // n_chunks for i in range(n_chunks + 1)]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_usable_cores() - 1, thread_name_prefix="shadowhp-w")
        futures = [
            _pool.submit(contextvars.copy_context().run, wofz, flat[a:b], out=res[a:b])
            for a, b in zip(cuts[1:-1], cuts[2:])
        ]
    wofz(flat[: cuts[1]], out=res[: cuts[1]])
    for future in futures:
        future.result()
    return out


@functools.cache
def load_wofz():
    """scipy's wofz ufunc, loaded on the first call.

    It comes from the compiled module _UFUNC_MODULE: from sys.modules if it
    is there, else loaded from scipy's special directory and registered in
    sys.modules under its own name. scipy.special supplies it only where
    scipy has no such module or the module has no wofz. A module loaded
    here before its package is not bound as an attribute of a later
    scipy.special; scipy imports from it only by name, which resolves
    through sys.modules.
    """
    import scipy

    module = sys.modules.get(_UFUNC_MODULE)
    if module is None:
        dirs = [os.path.join(path, "special") for path in scipy.__path__]
        spec = PathFinder.find_spec(_UFUNC_MODULE, dirs)
        if spec is not None:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_UFUNC_MODULE] = module
    wofz = getattr(module, "wofz", None)
    if wofz is None:
        from scipy.special import wofz
    return wofz


def faddeeva_w(z):
    """Evaluate w(z) for a scalar or an array; raises OverflowError deep in
    the lower half-plane and DomainError at the first point with a NaN
    component, where the Faddeeva Package would return NaN. Infinite
    components keep their limits (w(inf + 1j) is 0).

    For Im z < 0 the Faddeeva Package itself reflects, w(z) = 2 exp(-z^2) -
    w(-z), and exp(-z^2) overflows once Im(z)^2 - Re(z)^2 exceeds
    _RE_MZ2_MAX, or is itself not representable (inf - inf far out). This is
    the one overflow check on the w path, and it costs one comparison per
    point when no point lies below the real axis. The error names the first
    such point. Scalar input returns a Python complex. An array of
    2 * _MIN_POINTS_PER_THREAD points or more is evaluated in one chunk per
    usable core (see the module docstring), bit for bit as in one call.
    """
    arr = np.asarray(z, dtype=complex)
    nan = np.isnan(arr)
    if nan.any():
        raise DomainError(f"w(z) is undefined at z = {first(arr, nan)!r}")
    im = arr.imag
    lower = im < 0.0
    if lower.any():
        # over the whole array, not gathered: a boolean gather costs more
        # than the arithmetic it saves
        re = arr.real
        with np.errstate(over="ignore", invalid="ignore"):
            re_mz2 = im * im - re * re
        over = lower & ~(re_mz2 <= _RE_MZ2_MAX)
        if over.any():
            raise OverflowError(
                f"w(z) overflows at z = {first(arr, over)!r}: exp({first(re_mz2, over):.1f})"
            )
    wofz = load_wofz()
    if arr.size >= 2 * _MIN_POINTS_PER_THREAD:
        n_chunks = min(arr.size // _MIN_POINTS_PER_THREAD, _usable_cores())
        if n_chunks >= 2:
            return _split_wofz(wofz, arr, n_chunks)
    w = wofz(arr)
    return complex(w) if arr.ndim == 0 else w

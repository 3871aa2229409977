"""Faddeeva kernel w(z) = exp(-z^2) erfc(-iz).

w is S. G. Johnson's Faddeeva Package as shipped in scipy's wofz ufunc,
applied elementwise. BACKEND names it so that run records can say which
kernel produced them. For Im z < 0 that code applies the reflection
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
BACKEND loads nothing.
"""

from __future__ import annotations

import functools
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from shadowhp._arrays import first
from shadowhp.errors import DomainError

BACKEND = "scipy"

#: scipy's compiled module that holds the wofz ufunc
_UFUNC_MODULE = "scipy.special._special_ufuncs"

#: largest Re(-z^2) for which the lower-half-plane term exp(-z^2) is kept
_RE_MZ2_MAX = 708.0

__all__ = ["BACKEND", "faddeeva_w", "load_wofz"]


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
    such point. Scalar input returns a Python complex.
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
    w = load_wofz()(arr)
    return complex(w) if arr.ndim == 0 else w
